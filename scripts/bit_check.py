#!/usr/bin/env python3
"""Write the library's certified outputs over a fixed grid to one JSON file.

Two checkouts that should compute the same numbers are compared by running
this script in each and diffing the two files.  Every float is written with
`repr`, which round-trips binary64, and every operator image as a SHA-256 of
its bytes, so any moved bit shows up as a changed line.  A call that raises
records the exception class instead of a value.

Covered: `space_norm` (10 spaces, 64 power-log profiles at windows 16 and
65536, 6 finite inputs), `weighted_tail_sum` (both signs of scale, profiles
and their rearrangements), `calderon`, `weak_l1_membership`,
`ratio_profile_sup` (360 arguments) and the JSON of `f_norm_upper` (5 spaces,
grid windows 2^14 and 2^10).

Sums whose decay exponent lies in (1, 2) are left out: there the explicit
sum runs toward the 2^24-term cap and a single call takes seconds.

Usage:
    python3 scripts/bit_check.py --out bits.json
    diff bits_before.json bits_after.json
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from calderon.brackets import ratio_profile_sup
from calderon.operators import calderon
from calderon.optimal_range import GridConfig, f_norm_upper, weak_l1_membership
from calderon.sequences import decreasing_rearrangement, finite, power_log, weighted_tail_sum
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


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()[:24]


def image_doc(out) -> list:
    return [digest(out.window_values), digest(out.tail_halfwidth_per_index)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    args = ap.parse_args()

    out: dict = {}
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

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} outputs written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
