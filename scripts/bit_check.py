#!/usr/bin/env python3
"""Write the library's certified outputs over a fixed grid to one JSON file.

Two checkouts that should compute the same numbers are compared by running
this script in each and diffing the two files.  Every float is written with
`repr`, which round-trips binary64, and every operator image as a SHA-256 of
its bytes, so any moved bit shows up as a changed line.  A call that raises
records the exception class instead of a value.

Covered: the harmonic witness (SHA-256 of `harmonic_numbers(2^20)` and of
the image `harmonic_calderon_closed_form` on [0, 2^16), read index by
index so the script also runs where it takes scalars only, and
`repr(harmonic_number(10**7))`), `space_norm` (10 spaces, 64 power-log profiles at windows 16 and
65536, 6 finite inputs), `weighted_tail_sum` (both signs of scale, profiles
and their rearrangements), `calderon`, `weak_l1_membership`,
`ratio_profile_sup` (360 arguments), the JSON of `f_norm_upper` (5 spaces,
grid windows 2^14 and 2^10, plus a weak-l1 grid of power-log profiles near
the membership edge and finite inputs over wide magnitude ranges, plus lp:2
on a moderate finite input, plus finite normal supports of length 1000 to
8000 in the four spaces that search the full catalog, where the finite
witness wins over the priced power-log shapes, plus 3000 normal entries at
grid window 2^10 in all five spaces, which are certified on their whole
support), `weak_l1_membership` of finite supports longer than its window
(3000 normal entries at window 16, 70000 ones at the default), and the
`check_domination` verdicts of those wide finite inputs against their own
weak-l1 witness scaled by 1 and 0.999, and the `check_domination`
verdicts of short normal supports (1, 2, 31 and 1000 entries) against the
four non-harmonic power-log generators at their minimal scale c (recorded
too) times 1 and 0.999, the re-check that reads its image on the support of
a finite x.  Magnitude edges: `weak_l1_membership`
and the weak-l1 `f_norm_upper` on 3000 entries of 1e300 and of 1e305, the
power-log profiles of the `fnorm_mix` workload at negative scales (-1 and
-0.37) in membership and in `f_norm_upper` over their workload spaces, and
`f_norm_upper` over lorentz:log1p on [1e308], over m1inf on [1e307]*3, over
lp:2 on [1e200] and over all five fnorm spaces on [1e308]*3, where
power-log witnesses are scaled near the double range, and the harmonic
profile at scales 1e307 and 1e308 in the four catalog spaces, where the
images of the truncations of mu(x) overflow at the head.  The shape of
power-log profiles whose peak lies up to e^12 out: `peak_index` and a
SHA-256 of the sorted head, and the weak-l1, m1inf and membership verdicts
on an (alpha, beta) grid at a negative scale.  Long heads and the double
range: m1inf and lorentz:log1p at windows 16 and 64 on profiles whose sorted
head is longer than the window, `sum` of `power_log(1, 5)`, and convergent
power-log inputs whose values or sups only overflow the double range (each
records an `OverflowError` where its value is not a double).  Operators:
`calderon` of the rearranged finite inputs (a finite mu read past its
support), both Hilbert routes on 4096 normal entries of the line and on
supports whose length is not a power of two (3000 entries at halfwidth
3000, 5000 at halfwidth 8192, 777 from offset -10), and both
Hilbert routes and both `calderon` routes on [1e308, -1e308, 1e308] and
[1e308]*3, value by value.  Power-log arithmetic: the head, weak-l1 norm
and membership of power_log(1e300, 1e300) and power_log(1e6, 1), and
`calderon` of power_log(0.5, 40), whose tail starts near 4e11 (a call still
summing after 5 s is recorded as `Unbounded`).

Sums whose decay exponent lies in (1, 2) are left out: there the explicit
sum runs toward the 2^24-term cap and a single call takes seconds.  The
weak-l1 grid sums no such series, so it is kept apart from the five-space
loop, where the same profiles would be slow in llog and lp.

Run both checkouts at the same BLAS thread count (`OPENBLAS_NUM_THREADS`).
The naive Hilbert route sums each output as one BLAS dot product, which
OpenBLAS splits across threads only above 10000 terms: the naive digests
here (all with supports of at most 5000) agree between thread counts, but
a digest of a longer support can differ.

Usage:
    python3 scripts/bit_check.py --out bits.json
    diff bits_before.json bits_after.json
"""

import argparse
import hashlib
import json
import signal
import sys

import numpy as np

from calderon.brackets import ratio_profile_sup
from calderon.operators import METHOD_FAST, METHOD_NAIVE, calderon, calderon_min_kernel, hilbert
from calderon.optimal_range import (
    GENERATORS, GridConfig, _candidate_scale, _domination_length, check_domination, f_norm_upper,
    harmonic_calderon_closed_form,
    weak_l1_membership,
)
from calderon.sequences import (
    IndexDomain, decreasing_rearrangement, finite, harmonic_number, harmonic_numbers, power_log, weighted_tail_sum,
)
from calderon.spaces import LLOG, LOG1P, M1INF, SUM_SPACE, WEAK_L1, PhiTemplate, SpaceSpec, lp_space, space_norm

ALPHAS = (0.6, 0.8, 1.0, 1.1, 1.5, 2.0, 2.5, 3.0)
BETAS = (0.0, 0.5, 1.0, 2.0)
SCALES = (1.0, 0.37)
PROFILES = [(a, b, s) for a in ALPHAS for b in BETAS for s in SCALES]

SPACES = (
    lp_space(1.5),
    lp_space(2.0),
    lp_space(3.0),
    WEAK_L1,
    LLOG,
    SpaceSpec(kind="lorentz_phi", phi=LOG1P),
    SpaceSpec(kind="lorentz_phi", phi=PhiTemplate("power", 0.5)),
    SpaceSpec(kind="lorentz_phi", phi=PhiTemplate("power", 0.25)),
    M1INF,
    SUM_SPACE,
)
FNORM_SPACES = (WEAK_L1, LLOG, lp_space(2.0), SpaceSpec(kind="lorentz_phi", phi=LOG1P), M1INF)
# the power-log profiles of the fnorm_mix workload: IN_RANGE over every
# space of FNORM_SPACES, OUTSIDE over weak-l1 only
IN_RANGE = ((1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (1.25, 0.0), (1.5, 0.0), (1.5, 1.0),
            (2.0, 0.0), (2.0, 2.0))
OUTSIDE = ((0.5, 0.0), (0.75, 0.0), (0.9, 0.0), (0.75, 1.0), (1.0, 1.5), (1.0, 2.0))


def finite_inputs() -> dict:
    rng = np.random.default_rng(20240)
    return {
        "mixed5": finite([3.0, -1.0, 0.25, 2.0, -0.5]),
        "unit": finite([1.0]),
        "spike": finite([0.0, 0.0, 5.0, 0.0, 1.0]),
        "normal100": finite(rng.standard_normal(100)),
        "tiny64": finite(1e-200 * rng.random(64)),
        "uniform5000": finite(rng.random(5000)),
    }


def weak_l1_fnorm_inputs() -> dict:
    """Power-log profiles at and near the weak-l1 range edge (alpha = 1), and
    finite inputs whose entries span up to ten decades, at scales from
    1e-300 to 1e300."""
    edge = [(1.0, b) for b in (0.5, 0.9, 1.0)] + [(a, b) for a in (1.01, 1.1) for b in (0.0, 0.5, 1.0)]
    inputs = {f"pl({a},{b},{s})": power_log(a, b, s) for a, b in edge for s in (1.0, 0.37, 2.5)}
    rng = np.random.default_rng(61)
    for n in (1, 7, 64, 500, 5000):
        mags = 10.0 ** rng.uniform(-5.0, 5.0, n)
        signs = rng.choice([-1.0, 1.0], n)
        for scale in (1e-300, 1e-10, 1.0, 1e10, 1e290):
            inputs[f"wide{n}x{scale:g}"] = finite(scale * signs * mags)
    return inputs


def catalog_fnorm_inputs() -> dict:
    """Finite normal supports of the lengths fnorm_mix reaches, scaled to
    max |x| = 4."""
    rng = np.random.default_rng(83)
    inputs = {}
    for n in (1000, 3000, 8000):
        z = rng.standard_normal(n)
        inputs[f"normal{n}"] = finite(4.0 * z / np.max(np.abs(z)))
    return inputs


def sum_exponent(spec: SpaceSpec, alpha: float) -> float:
    """Decay exponent of the series a space sums over a power-log tail."""
    if spec.kind == "lp":
        return alpha * spec.p
    if spec.kind == "lorentz_phi" and spec.phi.name == "power":
        return alpha + 1.0 - spec.phi.theta
    if spec.kind in ("llog", "lorentz_phi"):
        return alpha + 1.0
    return 2.0  # sup functionals and m1inf's relative target sum no long series


def near_one(s: float) -> bool:
    return 1.0 < s < 2.0


def record(out: dict, key: str, fn) -> None:
    try:
        out[key] = fn()
    except (ArithmeticError, ValueError, RuntimeError) as e:
        out[key] = {"error": type(e).__name__}


def norm_doc(nv) -> list:
    return [repr(nv.value), repr(nv.tail_halfwidth), nv.window]


def bracket_doc(b) -> list:
    return [repr(b.lo), repr(b.hi)]


def member_doc(m) -> list:
    return [m.member, repr(m.c_a)]


def domination_doc(cert) -> list:
    return [cert.window_verified, cert.tail_ok, cert.first_violation]


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()[:24]


def estimate_digest(est) -> list:
    """upper and a SHA-256 of the whole estimate's JSON (long witnesses)."""
    text = json.dumps(est.to_json_dict(), sort_keys=True)
    return [repr(est.upper), hashlib.sha256(text.encode()).hexdigest()[:24]]


def image_doc(out) -> list:
    return [digest(out.window_values), digest(out.tail_halfwidth_per_index)]


def values_doc(values: np.ndarray) -> list:
    """Every value of a short operator image or head, as repr."""
    return [repr(float(v)) for v in values]


class Unbounded(Exception):
    pass


def bounded(fn, seconds: int = 5):
    """fn() under a wall-clock alarm: a call that sums without bound is
    recorded as the error `Unbounded` after `seconds`."""
    def stop(signum, frame):
        raise Unbounded()

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return fn()
    except Unbounded:
        return {"error": "Unbounded"}
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    args = ap.parse_args()

    out: dict = {}
    # the harmonic witness: H_m read by array and by index, and S a read by index
    out["harmonic/numbers/2^20"] = digest(harmonic_numbers(1 << 20))
    out["harmonic/number/10^7"] = repr(harmonic_number(10**7))
    out["harmonic/image/2^16"] = digest(np.array([harmonic_calderon_closed_form(n) for n in range(1 << 16)]))

    fins = finite_inputs()
    for spec in SPACES:
        for a, b, s in PROFILES:
            if near_one(sum_exponent(spec, a)):
                continue
            for window in (16, 65536):
                record(out, f"norm/{spec.label}/pl({a},{b},{s})/w{window}",
                       lambda: norm_doc(space_norm(spec, power_log(a, b, s), window)))
        for name, x in fins.items():
            record(out, f"norm/{spec.label}/{name}", lambda: norm_doc(space_norm(spec, x)))

    for a, b, _ in PROFILES[::2]:
        if near_one(a + 1.0):
            continue
        for s in (0.37, -0.37, 1.0):
            for n in (0, 15, 1000):
                record(out, f"wts/pl({a},{b},{s})/n{n}",
                       lambda: bracket_doc(weighted_tail_sum(power_log(a, b, s), n)))
        mu = decreasing_rearrangement(power_log(a, b, 0.37))
        for n in (0, 5, 100):
            record(out, f"wts/mu({a},{b})/n{n}", lambda: bracket_doc(weighted_tail_sum(mu, n)))
    for name, x in fins.items():
        record(out, f"wts/{name}", lambda: bracket_doc(weighted_tail_sum(x, 2)))

    for a, b, s in PROFILES:
        x = power_log(a, b, s)
        if not near_one(a + 1.0):
            for window in (16, 4096):
                record(out, f"calderon/pl({a},{b},{s})/w{window}",
                       lambda: image_doc(calderon(decreasing_rearrangement(x), window)))
        for window in (16, 1 << 14):
            record(out, f"member/pl({a},{b},{s})/w{window}", lambda: member_doc(weak_l1_membership(x, window)))
    for name, x in fins.items():
        record(out, f"calderon/{name}", lambda: image_doc(calderon(x, 4096)))
        record(out, f"member/{name}", lambda: member_doc(weak_l1_membership(x)))

    for a in (-0.5, 0.0, 0.25, 0.5, 1.0, 2.0):
        for b in (-1.0, 0.0, 0.5, 1.0, 2.0, 40.0):
            for start in (0, 1, 16, 1000, 65536):
                for scale in (1.0, 0.37):
                    record(out, f"ratio/{a}/{b}/{start}/{scale}",
                           lambda: repr(ratio_profile_sup(a, b, start, scale)))

    rng = np.random.default_rng(7)
    fnorm_inputs = {
        "len1": finite([2.5]),
        "len17": finite(rng.standard_normal(17)),
        "len300": finite(rng.standard_normal(300)),
        "pl(1,0,0.7)": power_log(1.0, 0.0, 0.7),
        "pl(1.5,0,0.7)": power_log(1.5, 0.0, 0.7),
        "pl(2,2,0.7)": power_log(2.0, 2.0, 0.7),
        "pl(1.25,0.5,0.7)": power_log(1.25, 0.5, 0.7),
    }
    for E in FNORM_SPACES:
        for name, x in fnorm_inputs.items():
            for window in (1 << 14, 1 << 10):
                record(out, f"fnorm/{E.label}/{name}/w{window}",
                       lambda: json.dumps(f_norm_upper(x, E, GridConfig(window)).to_json_dict(),
                                          sort_keys=True))
    record(out, "fnorm/lp(2)/moderate3",
           lambda: json.dumps(f_norm_upper(finite([1e8, 5e7, 3.3e7]), lp_space(2.0)).to_json_dict(),
                              sort_keys=True))
    for E in FNORM_SPACES[1:]:
        for name, x in catalog_fnorm_inputs().items():
            record(out, f"fnorm/{E.label}/{name}", lambda: estimate_digest(f_norm_upper(x, E)))
    # finite inputs longer than the window are read on their whole support
    long_x = finite(np.random.default_rng(89).standard_normal(3000))
    for E in FNORM_SPACES:
        record(out, f"fnorm/{E.label}/normal3000/w1024",
               lambda: estimate_digest(f_norm_upper(long_x, E, GridConfig(1 << 10))))
    record(out, "member/normal3000/w16", lambda: member_doc(weak_l1_membership(long_x, 16)))
    record(out, "member/ones70000", lambda: member_doc(weak_l1_membership(finite(np.ones(70000)))))

    for name, x in weak_l1_fnorm_inputs().items():
        for window in (1 << 14, 1 << 10, 16):
            record(out, f"fnorm/weak_l1/{name}/w{window}",
                   lambda: json.dumps(f_norm_upper(x, WEAK_L1, GridConfig(window)).to_json_dict(),
                                      sort_keys=True))
        if name.startswith("wide"):
            y = f_norm_upper(x, WEAK_L1).witness.y
            for factor in (1.0, 0.999):
                record(out, f"domination/{name}/y*{factor}",
                       lambda: domination_doc(check_domination(x, power_log(y.alpha, y.beta, factor * y.scale),
                                                               1 << 14)))

    rng = np.random.default_rng(97)
    for n in (1, 2, 31, 1000):
        x = finite(rng.standard_normal(n))
        for a, b in GENERATORS:
            mu_x = decreasing_rearrangement(x)
            c, _ = _candidate_scale(mu_x, mu_x.head(_domination_length(mu_x, 1 << 14)), power_log(a, b), 1 << 14)
            out[f"scale/normal{n}/pl({a},{b})"] = repr(c)
            for factor in (1.0, 0.999):
                record(out, f"domination/normal{n}/pl({a},{b})*{factor}",
                       lambda: domination_doc(check_domination(x, power_log(a, b, factor * c), 1 << 14)))

    def fnorm_json(x, E):
        return json.dumps(f_norm_upper(x, E).to_json_dict(), sort_keys=True)

    for name, x in {"1e300x3000": finite([1e300] * 3000), "1e305x3000": finite([1e305] * 3000)}.items():
        record(out, f"member/{name}", lambda: member_doc(weak_l1_membership(x)))
        record(out, f"fnorm/weak_l1/{name}", lambda: fnorm_json(x, WEAK_L1))
    for s in (-1.0, -0.37):
        for a, b in IN_RANGE + OUTSIDE:
            x = power_log(a, b, s)
            record(out, f"member/pl({a},{b},{s})", lambda: member_doc(weak_l1_membership(x)))
            for E in FNORM_SPACES if (a, b) in IN_RANGE else (WEAK_L1,):
                record(out, f"fnorm/{E.label}/pl({a},{b},{s})", lambda: fnorm_json(x, E))
    near_max = [(FNORM_SPACES[3], [1e308]), (M1INF, [1e307] * 3), (FNORM_SPACES[2], [1e200])]
    near_max += [(E, [1e308] * 3) for E in FNORM_SPACES]
    for E, values in near_max:
        record(out, f"fnorm/{E.label}/{values[0]:g}x{len(values)}", lambda: fnorm_json(finite(values), E))
    for E in FNORM_SPACES[1:]:
        for s in (1e307, 1e308):
            record(out, f"fnorm/{E.label}/pl(1,0,{s:g})", lambda: fnorm_json(power_log(1.0, 0.0, s), E))

    # the shape of a power-log profile: the peak, the sorted head before the
    # settle index (a HeadResolutionError from beta/alpha = 6 on), and the sup
    # verdicts that are decided from (alpha, beta) before any head is built
    for a in (0.5, 1.0, 2.0, 3.0):
        for q in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0):
            for s in (1.0, -0.37):
                x = power_log(a, a * q, s)
                record(out, f"peak/pl({a},{a * q},{s})", lambda: x.peak_index)
                record(out, f"head/pl({a},{a * q},{s})", lambda: digest(decreasing_rearrangement(x).values))
    for a in (0.5, 0.9, 1.0, 1.5, 2.0):
        for b in (0.0, 0.5, 1.0, 1.5, 2.0):
            x = power_log(a, b, -0.37)
            for spec in (WEAK_L1, M1INF):
                record(out, f"diverge/{spec.label}/pl({a},{b},-0.37)", lambda: norm_doc(space_norm(spec, x)))
            record(out, f"diverge/member/pl({a},{b},-0.37)", lambda: member_doc(weak_l1_membership(x)))

    # sorted heads longer than the window: the explicit mass past the window
    # is read from the head, then from the profile
    for a, b, s in ((1.5, 4.0, 0.37), (2.0, 6.0, 0.37), (1.2, 5.0, 1.0)):
        for spec in (M1INF, FNORM_SPACES[3]):
            for window in (16, 64):
                record(out, f"longhead/{spec.label}/pl({a},{b},{s})/w{window}",
                       lambda: norm_doc(space_norm(spec, power_log(a, b, s), window)))
    record(out, "norm/sum_weakl1_linf/pl(1.0,5.0,1.0)", lambda: norm_doc(space_norm(SUM_SPACE, power_log(1.0, 5.0))))
    # convergent inputs at the edge of the double range: a value is a double
    # or an OverflowError, never inf
    edge_norms = [((1.5, 0.0, 1e308), LLOG), ((1.5, 0.0, 1e308), FNORM_SPACES[3]),
                  ((1.05, 1.0, 2.6e307), WEAK_L1), ((1.001, 1.0, 1e306), M1INF)]
    edge_norms += [((1.5, 6.0, 7e307), spec) for spec in (WEAK_L1, SUM_SPACE, LLOG)]
    for (a, b, s), spec in edge_norms:
        record(out, f"edge/{spec.label}/pl({a},{b},{s:g})", lambda: norm_doc(space_norm(spec, power_log(a, b, s))))
    for a, b, s in ((1.5, 6.0, 7e307), (1.05, 2.0, 1e308)):
        x = power_log(a, b, s)
        record(out, f"edge/member/pl({a},{b},{s:g})", lambda: member_doc(weak_l1_membership(x)))
        record(out, f"edge/fnorm/weak_l1/pl({a},{b},{s:g})", lambda: fnorm_json(x, WEAK_L1))

    # a finite mu read past its support, and the operators at the double range
    for name, x in fins.items():
        record(out, f"calderon/mu/{name}", lambda: image_doc(calderon(decreasing_rearrangement(x), 4096)))
    line = finite(np.random.default_rng(101).standard_normal(4096), -2048, IndexDomain.LINE)
    for method in (METHOD_NAIVE, METHOD_FAST):
        record(out, f"hilbert/normal4096/{method}", lambda: image_doc(hilbert(line, -4096, 4096, method)))
    # supports whose length is not a power of two; the naive route sums each
    # output as one dot product of K <= 10000 terms, whose bits do not depend
    # on the BLAS thread count
    rng = np.random.default_rng(103)
    for size, offset, half in ((3000, 0, 3000), (5000, 0, 8192), (777, -10, 777)):
        x = finite(rng.standard_normal(size), offset, IndexDomain.LINE)
        for method in (METHOD_NAIVE, METHOD_FAST):
            record(out, f"hilbert/normal{size}@{offset}/h{half}/{method}",
                   lambda: image_doc(hilbert(x, -half, half, method)))
    big = {"line": finite([1e308, -1e308, 1e308], 0, IndexDomain.LINE), "half": finite([1e308] * 3)}
    for name, x in big.items():
        for method in (METHOD_NAIVE, METHOD_FAST):
            record(out, f"edge/hilbert/{name}/{method}",
                   lambda: values_doc(hilbert(x, -4, 4, method).window_values))
    for route in (calderon, calderon_min_kernel):
        record(out, f"edge/{route.__name__}/half", lambda: values_doc(route(big["half"], 4).window_values))
    # power-log arithmetic past the double range, and a tail start past the scan cap
    for a, b in ((1e300, 1e300), (1e6, 1.0)):
        x = power_log(a, b)
        record(out, f"edge/rearrange/pl({a:g},{b:g})", lambda: values_doc(decreasing_rearrangement(x).head(16)))
        record(out, f"edge/weak_l1/pl({a:g},{b:g})", lambda: norm_doc(space_norm(WEAK_L1, x, 16)))
        record(out, f"edge/member/pl({a:g},{b:g})", lambda: member_doc(weak_l1_membership(x, 16)))
    record(out, "edge/calderon/pl(0.5,40)/w16", lambda: bounded(lambda: image_doc(calderon(power_log(0.5, 40.0), 16))))

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} outputs written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
