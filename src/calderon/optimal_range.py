"""Constructive optimal-range machinery.

A sequence x belongs to the range space F (over a domain space E) when some
witness y in E dominates it through the averaging operator: mu(x) <= S mu(y)
pointwise.  The F quasi-norm is the infimum of |y|_E over witnesses; this
module computes certified upper bounds by searching witness shapes (the
rearrangement of x, its truncations, and power-log generators), each taken at
its minimal admissible scale, and — for E = weak-l1 — a certified lower bound
through the sup-ratio functional

    c_a(x) = sup_n mu(n, x) (n+1) / log(n+2),

which characterizes membership: x in F  iff  c_a(x) < infinity.

Every certificate is checked on an explicit window and closed beyond it by an
analytic tail argument: trivially for finitely supported x, or by a certified
ratio bound for power-log tails (the harmonic witness uses
(S mu(a))(n) = (H_{n+1}+1)/(n+1) > log(n+2)/(n+1); general witnesses use the
partial-sum lower bound S mu(y)(n) >= P_y(W)/(n+1) for n >= W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence as TySequence, Union

import numpy as np

from .brackets import DivergentTailError, TailToleranceError, ratio_profile_sup
from .operators import calderon
from .report import CaseResult, FAIL, PASS
from .sequences import (
    FiniteSequence,
    IndexDomain,
    PowerLogSequence,
    PowerLogTail,
    Rearrangement,
    Sequence,
    decreasing_rearrangement,
    finite,
    harmonic_number,
    harmonic_numbers,
    power_log,
    sequence_to_json,
)
from .spaces import WEAK_L1, SpaceSpec, space_norm

TAIL_FINITE_SUPPORT = "finite_support_x"
TAIL_ANALYTIC = "analytic_comparison"

LOG2 = math.log(2.0)

DOMINATION_TOL = 1e-12  # relative slack of check_domination, window and tail
QUASITRIANGLE_TOL = 1e-9


class NoWitnessFoundError(RuntimeError):
    """No candidate witness certifies; x may still lie in F (inconclusive)
    unless the message records a certified divergence."""


MuLike = Union[Sequence, Rearrangement]


@dataclass(frozen=True)
class DominationCertificate:
    x: MuLike
    y: MuLike
    window: int
    window_verified: bool
    tail_argument: str
    tail_ok: bool
    first_violation: Optional[int] = None

    @property
    def verified(self) -> bool:
        return self.window_verified and self.tail_ok

    def to_json_dict(self) -> dict:
        def ser(s):
            if isinstance(s, Rearrangement):
                t = s.tail
                return {
                    "kind": "rearrangement",
                    "head": [float(v) for v in s.values],
                    "tail": (
                        {"alpha": t.alpha, "beta": t.beta, "scale": t.scale}
                        if isinstance(t, PowerLogTail)
                        else "zero"
                    ),
                }
            return sequence_to_json(s)

        return {
            "x": ser(self.x),
            "y": ser(self.y),
            "window": self.window,
            "window_verified": self.window_verified,
            "tail_argument": self.tail_argument,
            "tail_ok": self.tail_ok,
            "first_violation": self.first_violation,
        }


@dataclass(frozen=True)
class FNormEstimate:
    upper: float
    lower: Optional[float]
    witness: DominationCertificate

    def __post_init__(self):
        if self.lower is not None and self.lower > self.upper * (1 + 1e-9) + 1e-300:
            raise ValueError("lower estimate exceeds upper estimate")

    def to_json_dict(self) -> dict:
        return {
            "upper": float(self.upper),
            "lower": None if self.lower is None else float(self.lower),
            "witness": self.witness.to_json_dict(),
        }


TRUNCATION_LEVELS = (16, 256, 4096)
GENERATORS = ((1.25, 0.0), (1.5, 0.0), (2.0, 0.0), (1.5, 1.0))


@dataclass(frozen=True)
class GridConfig:
    """Witness-shape search configuration: the certificate window on which
    every candidate is scaled and checked (at least 16)."""

    window: int = 1 << 14

    def __post_init__(self):
        if self.window < 16:
            raise ValueError("certificate window must be at least 16")


DEFAULT_GRID = GridConfig()


def harmonic_calderon_closed_form(n: int) -> float:
    """(S mu(a))(n) for the harmonic profile mu(k, a) = 1/(k+1): the head
    averages to H_{n+1}/(n+1) and the tail telescopes to 1/(n+1)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return (harmonic_number(n + 1) + 1.0) / (n + 1.0)


def _harmonic_calderon_window(window: int) -> np.ndarray:
    return (harmonic_numbers(window) + 1.0) / (np.arange(1, window + 1, dtype=np.float64))


def _mu_head(mu: Rearrangement, window: int) -> np.ndarray:
    return mu.head(window) if not mu.tail.is_zero else mu.head(min(window, len(mu.values)))


# ---------------------------------------------------------------------------
# membership functional


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    c_a: float


def weak_l1_membership(x: MuLike, window: int = 1 << 14) -> MembershipResult:
    """c_a(x) = sup_n mu(n, x)(n+1)/log(n+2); member iff finite.  A window
    sup beyond the double range raises OverflowError (inf means divergence)."""
    if isinstance(x, PowerLogSequence):
        # the rearrangement keeps the profile's own tail, so divergence of
        # c_a is decided by the tail alone -- no head resolution needed
        # (profiles with alpha < 1 may not settle within any desk-scale cap)
        profile_sup = ratio_profile_sup(x.alpha - 1.0, x.beta - 1.0, window, scale=x.scale)
        if math.isinf(profile_sup):
            return MembershipResult(False, math.inf)
    mu = decreasing_rearrangement(x)
    head = _mu_head(mu, window)
    W = len(head)
    if W == 0 and mu.tail.is_zero:
        return MembershipResult(True, 0.0)
    ns = np.arange(W, dtype=np.float64)
    with np.errstate(over="ignore"):
        window_sup = float(np.max(head * (ns + 1.0) / np.log(ns + 2.0))) if W else 0.0
    if math.isinf(window_sup):
        raise OverflowError("c_a over the window exceeds the double range")
    if mu.tail.is_zero:
        return MembershipResult(True, window_sup)
    t = mu.tail
    tail_sup = ratio_profile_sup(t.alpha - 1.0, t.beta - 1.0, W, scale=t.scale)
    if math.isinf(tail_sup):
        return MembershipResult(False, math.inf)
    return MembershipResult(True, max(window_sup, tail_sup))


# ---------------------------------------------------------------------------
# certificates


def _tail_ratio_sup(mu_x: Rearrangement, y: MuLike, window: int, partial_sum: float) -> float:
    """Certified sup over n >= window of mu_x(n) / (S mu(y))(n), given the
    window partial sum P = sum_{k<window} mu(y)(k).  Returns inf when no rule
    certifies a finite bound."""
    if mu_x.tail.is_zero and len(mu_x.values) <= window:
        return 0.0
    t = mu_x.tail
    if t.is_zero:
        # head extends past the window: not certifiable by these rules
        return math.inf
    sups = []
    if isinstance(y, PowerLogSequence) and y.alpha == 1.0 and y.beta == 0.0 and y.scale > 0:
        # S mu(y)(n) = scale*(H_{n+1}+1)/(n+1) > scale*log(n+2)/(n+1)
        sups.append(
            ratio_profile_sup(t.alpha - 1.0, t.beta - 1.0, window, scale=t.scale / y.scale)
        )
    if partial_sum > 0:
        # S mu(y)(n) >= P/(n+1) for n >= window
        sups.append(ratio_profile_sup(t.alpha - 1.0, t.beta, window, scale=t.scale / partial_sum))
    return min(sups) if sups else math.inf


def check_domination(x: MuLike, y: MuLike, window: int) -> DominationCertificate:
    """Verify mu(x) <= S mu(y) on the window and close the tail analytically."""
    mu_x = decreasing_rearrangement(x)
    mu_y = decreasing_rearrangement(y)
    s = calderon(mu_y, window)
    rhs = s.window_values + s.tail_halfwidth_per_index
    lhs = mu_x.head(window)  # zero past a finite support
    slack = DOMINATION_TOL * np.maximum(1.0, np.abs(rhs))
    bad = np.nonzero(lhs > rhs + slack)[0]
    window_verified = bad.size == 0
    first_violation = int(bad[0]) if bad.size else None
    if mu_x.tail.is_zero and len(mu_x.values) <= window:
        tail_argument = TAIL_FINITE_SUPPORT
        tail_ok = True
    else:
        tail_argument = TAIL_ANALYTIC
        partial = float(np.sum(np.asarray(_mu_head(mu_y, window), dtype=np.longdouble)))
        tail_ok = _tail_ratio_sup(mu_x, y, window, partial) <= 1.0 + DOMINATION_TOL
    return DominationCertificate(
        x=x,
        y=y,
        window=window,
        window_verified=window_verified,
        tail_argument=tail_argument,
        tail_ok=tail_ok,
        first_violation=first_violation,
    )


# ---------------------------------------------------------------------------
# F-norm upper estimates


def _candidate_scale(
    mu_x: Rearrangement, shape: MuLike, window: int
) -> tuple[float, str]:
    """Minimal c with mu(x) <= c * S mu(shape) certified on all of Z+,
    together with the tail argument used.  Returns (inf, reason) when the
    shape cannot dominate any scaling of x."""
    mu_shape = decreasing_rearrangement(shape)
    if mu_shape.is_zero:
        return (0.0, TAIL_FINITE_SUPPORT) if mu_x.is_zero else (math.inf, "zero witness")
    if isinstance(shape, PowerLogSequence) and shape.alpha == 1.0 and shape.beta == 0.0:
        s_lo = shape.scale * _harmonic_calderon_window(window)
    else:
        try:
            out = calderon(mu_shape, window)
        except (DivergentTailError, TailToleranceError):
            return math.inf, "witness image tail not certifiable at tolerance"
        s_lo = out.window_values - out.tail_halfwidth_per_index
        if float(np.min(s_lo)) <= 0.0:
            return math.inf, "witness image not positive on window"
    lhs = mu_x.head(window)  # zero past a finite support
    window_scale = float(np.max(lhs / s_lo)) if window else 0.0
    if mu_x.tail.is_zero and len(mu_x.values) <= window:
        return window_scale, TAIL_FINITE_SUPPORT
    partial = float(np.sum(np.asarray(_mu_head(mu_shape, window), dtype=np.longdouble)))
    tail_scale = _tail_ratio_sup(mu_x, shape, window, partial)
    if math.isinf(tail_scale):
        return math.inf, "no analytic tail rule certifies this witness shape"
    return max(window_scale, tail_scale), TAIL_ANALYTIC


def _scaled_shape(shape: MuLike, c: float) -> MuLike:
    if isinstance(shape, PowerLogSequence):
        return PowerLogSequence(shape.alpha, shape.beta, shape.scale * c)
    if isinstance(shape, FiniteSequence):
        return finite(shape.values * c, shape.offset, shape.domain)
    if isinstance(shape, Rearrangement):
        t = shape.tail
        tail = t if t.is_zero else PowerLogTail(t.alpha, t.beta, t.scale * c)
        return Rearrangement(shape.values * c, tail)
    raise TypeError(f"not a shape: {type(shape)!r}")


def f_norm_upper(
    x: MuLike, E: SpaceSpec = WEAK_L1, search: GridConfig = DEFAULT_GRID
) -> FNormEstimate:
    """Best certified upper bound of the F quasi-norm of x over the witness
    shapes, each at its minimal admissible scale.

    Raises NoWitnessFoundError when no shape certifies; for E = weak-l1 the
    error is accompanied by the certified divergence of c_a(x) (x is then
    genuinely outside F), otherwise the search is merely inconclusive.
    """
    window = search.window
    member = weak_l1_membership(x, window) if E.kind == "weak_l1" else None
    if member is not None and not member.member:
        # certified before any head resolution: no witness can dominate x
        raise NoWitnessFoundError(
            "no witness exists: c_a(x) diverges, x is outside the range space"
        )
    mu_x = decreasing_rearrangement(x)
    if mu_x.is_zero:
        cert = DominationCertificate(
            x=x, y=finite(()), window=window, window_verified=True,
            tail_argument=TAIL_FINITE_SUPPORT, tail_ok=True,
        )
        return FNormEstimate(0.0, None if member is None else 0.0, cert)

    # Each distinct shape once: a truncation that reaches the whole finite
    # support is mu(x) itself, kept as a finite shape so the witness stays one.
    shapes: list[MuLike] = [power_log(1.0, 0.0)]
    shapes += [power_log(alpha, beta) for alpha, beta in GENERATORS]
    for L in sorted({min(L, window) for L in TRUNCATION_LEVELS}):
        if mu_x.tail.is_zero and L >= len(mu_x.values):
            shapes.append(finite(mu_x.values))
            break
        shapes.append(finite(mu_x.head(L)))
    else:
        shapes.append(mu_x)

    best: Optional[tuple[float, MuLike, str]] = None
    reasons = []
    for shape in shapes:
        c, tail_argument = _candidate_scale(mu_x, shape, window)
        if math.isinf(c) or c == 0.0:
            reasons.append(tail_argument)
            continue
        y = _scaled_shape(shape, c)
        try:
            e_norm = space_norm(E, y, window).value
        except (DivergentTailError, TailToleranceError):
            e_norm = math.inf
        if math.isinf(e_norm):
            reasons.append("witness outside E")
            continue
        if best is None or e_norm < best[0]:
            best = (e_norm, y, tail_argument)
    if best is None:
        raise NoWitnessFoundError(
            f"no candidate witness certifies (inconclusive): {sorted(set(reasons))}"
        )
    upper, y, tail_argument = best
    cert = check_domination(mu_x, y, window)
    lower = None if member is None else min(member.c_a * LOG2 / 2.0, upper)
    return FNormEstimate(upper, lower, cert)


# ---------------------------------------------------------------------------
# property drivers


def c_star(x: MuLike, window: int = 1 << 14) -> float:
    """Optimal harmonic-witness scale sup_n mu(n, x)(n+1)/(H_{n+1}+1) on the
    window (exact for finite supports living inside the window)."""
    head = _mu_head(decreasing_rearrangement(x), window)
    if len(head) == 0:
        return 0.0
    return float(np.max(head / _harmonic_calderon_window(len(head))))


def verify_f_quasitriangle(
    E: SpaceSpec,
    pairs: TySequence[tuple[FiniteSequence, FiniteSequence]],
    c_E: float,
    search: GridConfig = DEFAULT_GRID,
) -> CaseResult:
    """f(x1+x2) <= 2 c_E^2 (f(x1) + f(x2)) over the given pairs."""
    from .sequences import add_scaled

    violations = 0
    worst = 0.0
    for x1, x2 in pairs:
        f1 = f_norm_upper(x1, E, search).upper
        f2 = f_norm_upper(x2, E, search).upper
        f12 = f_norm_upper(add_scaled(x1, 1.0, x2, 1.0), E, search).upper
        bound = 2.0 * c_E * c_E * (f1 + f2)
        if bound == 0.0:
            ok = f12 == 0.0
            ratio = 0.0 if ok else math.inf
        else:
            ratio = f12 / bound
            ok = f12 <= bound * (1.0 + QUASITRIANGLE_TOL)
        worst = max(worst, ratio)
        violations += not ok
    return CaseResult(
        name=f"f_quasitriangle_{E.kind}",
        status=PASS if violations == 0 else FAIL,
        observed_constant=worst,
        note=f"{violations} violations over {len(pairs)} pairs (measured c_E={c_E:.6g})",
    )


@dataclass
class MinimalityProbe:
    space: str
    probe_constant: float
    probe_constant_half: float
    detected_unbounded: bool
    containment_constant: Optional[float]
    containment_violations: Optional[int]


UNBOUNDED_SUP_THRESHOLD = 10.0
UNBOUNDED_DRIFT_THRESHOLD = 0.5


def _windowed_g_norm(spec: SpaceSpec, values: np.ndarray) -> float:
    return space_norm(spec, finite(values)).value


def verify_minimality(
    E: SpaceSpec,
    catalog: TySequence[SpaceSpec],
    witnesses: TySequence[MuLike],
    window: int = 1 << 16,
    member_window: int = 1 << 12,
    search: GridConfig = DEFAULT_GRID,
) -> list[MinimalityProbe]:
    """Probe each candidate range space G in the catalog.

    Boundedness detector (desk scale): on the harmonic generator, the windowed
    ratio |S mu(a)|_G / |a|_E read at the window and at half the window; G is
    flagged unbounded when the full-window value exceeds 10 or one window
    doubling adds at least 0.5.  For G not flagged, the containment
    |x|_G <= C |x|_F is checked on members x = S mu(y) generated from the
    witness list, with C the empirical operator constant over the same
    witnesses together with the members' own best witnesses.
    """
    def image(y: MuLike) -> np.ndarray:
        return calderon(decreasing_rearrangement(y), member_window).window_values

    harmonic_img = _harmonic_calderon_window(window)
    denom = space_norm(E, power_log(1.0, 0.0), window).value
    # G-independent: the members with their F estimates, and the images and
    # E-norms of the witnesses extended by the members' own certifying
    # witnesses (which guarantees containment)
    members = [finite(image(y)) for y in witnesses]
    estimates = [f_norm_upper(x, E, search) for x in members]
    pool = []
    for y in list(witnesses) + [est.witness.y for est in estimates]:
        denom_y = space_norm(E, y, window).value
        if denom_y != 0.0 and not math.isinf(denom_y):
            pool.append((image(y), denom_y))
    probes = []
    for G in catalog:
        g_full = _windowed_g_norm(G, harmonic_img) / denom
        g_half = _windowed_g_norm(G, harmonic_img[: window // 2]) / denom
        unbounded = (g_full > UNBOUNDED_SUP_THRESHOLD) or (
            g_full - g_half >= UNBOUNDED_DRIFT_THRESHOLD
        )
        if unbounded:
            probes.append(MinimalityProbe(G.label, g_full, g_half, True, None, None))
            continue
        C = 0.0
        for img, denom_y in pool:
            C = max(C, _windowed_g_norm(G, img) / denom_y)
        bad = 0
        for x_member, est in zip(members, estimates):
            gx = _windowed_g_norm(G, x_member.values)
            if gx > C * est.upper * (1.0 + 1e-9) + 1e-300:
                bad += 1
        probes.append(MinimalityProbe(G.label, g_full, g_half, False, C, bad))
    return probes


@dataclass(frozen=True)
class HilbertRangeSandwich:
    upper_constant: float
    upper_constant_doubled: float
    lower_min_slack_ratio: float


def verify_hilbert_optimal_range(
    l1_family: TySequence[FiniteSequence],
    monotone_family: TySequence[FiniteSequence],
    out_window: int = 1 << 12,
    check_len: int = 512,
) -> HilbertRangeSandwich:
    """Two-sided sandwich around the transform:

    upper: mu(H x)(n) <= C1 (S mu(x))(n) on certified rearrangement heads over
    the l1 family, C1 reported at the window and its double; lower: the
    (1/(2 pi)) S x(n) <= |H x(-n)| inequality over the monotone family, the
    minimal ratio |H x(-n)| / ((1/(2 pi)) S x(n)) reported (>= 1 means pass).
    """
    from .operators import METHOD_FAST, hilbert, hilbert_symmetric

    uppers = []
    for W in (out_window, 2 * out_window):
        worst = 0.0
        for x in l1_family:
            xl = FiniteSequence(IndexDomain.LINE, x.offset, x.values)
            h = hilbert_symmetric(xl, W, METHOD_FAST)
            mu_h = np.sort(np.abs(h.window_values))[::-1]
            # the first head entries of the windowed rearrangement are the true
            # ones as long as they exceed the window-edge envelope |x|_1/(pi d)
            support_radius = max(abs(x.offset), abs(x.end - 1)) + 1
            edge = x.l1() / (math.pi * max(W - support_radius, 1))
            head = min(check_len, int(np.searchsorted(-mu_h, -edge)))
            if head == 0:
                continue
            smu = calderon(decreasing_rearrangement(x), head).window_values
            worst = max(worst, float(np.max(mu_h[:head] / smu)))
        uppers.append(worst)
    min_ratio = math.inf
    for x in monotone_family:
        sx = calderon(x, check_len + 1).window_values[1:]
        xl = FiniteSequence(IndexDomain.LINE, x.offset, x.values)
        h = hilbert(xl, -check_len, -1, METHOD_FAST)
        rhs = np.abs(h.window_values[::-1])
        lhs = sx / (2.0 * math.pi)
        mask = lhs > 0
        if np.any(mask):
            min_ratio = min(min_ratio, float(np.min(rhs[mask] / lhs[mask])))
    return HilbertRangeSandwich(uppers[0], uppers[1], min_ratio)
