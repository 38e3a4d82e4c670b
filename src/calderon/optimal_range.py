"""Constructive optimal-range machinery.

A sequence x belongs to the range space F (over a domain space E) when some
witness y in E dominates it through the averaging operator: mu(x) <= S mu(y)
pointwise.  The F quasi-norm f(x) is the infimum of |y|_E over witnesses.
For E = weak-l1 the harmonic witness c*(x) a, a(k) = 1/(k+1), attains it:

    f(x) = c*(x) = sup_n mu(n, x) (n+1) / (H_{n+1} + 1),

since a decreasing y with |y|_weak = t lies below t a, S is positive and
(S a)(n) = (H_{n+1}+1)/(n+1), so mu(x) <= S y forces t >= c*(x).  That
image is `harmonic_calderon_closed_form`, read at an index or an index array.  Other
spaces search finite or power-log witness shapes (generators, truncations of
mu(x), and mu(x) itself: finite, or the unit profile of an analytic tail),
each at its minimal admissible scale, for a certified upper bound.  Every
E is a symmetric quasi-norm, so |c g|_E = c |g|_E: a power-log shape g at
scale c is priced as c times the upper end of |g|_E, computed once per
shape and window, and only the finite shapes are normed after scaling.  For
weak-l1, c_a(x) = sup_n mu(n, x) (n+1) / log(n+2) characterizes membership
(x in F iff c_a(x) < infinity) and gives a certified lower bound.

One test, `_domination`, decides mu(x) <= S mu(y) for the search (against the
lower end of S mu(y), which certifies the scale) and for the re-check
(against the upper end, which refutes only beyond the bracket).  It checks an
explicit window and closes the tail by an analytic argument.  The search
reads the head of mu(x) on that window once per query, shares it among the
shapes and slices the truncations of mu(x) from it; the re-check reads its
own.  A finite x is read whole: its certificate window is at least its
support, and S mu(y) is read on the support alone, since past it the test
is 0 <= S mu(y).  The window bounds analytic heads only, and a power-log
tail is closed by a certified ratio bound (the harmonic witness uses
(S mu(a))(n) = (H_{n+1}+1)/(n+1) > log(n+2)/(n+1); general witnesses use
the partial-sum lower bound S mu(y)(n) >= P_y(W)/(n+1) for n >= W).  An estimate's
certificate holds mu(x), on which alone f depends, in a wire kind, so it replays.

The property measurements at the end (quasi-triangle sides, minimality
probes, the upper constant of H against S mu) return numbers; `suites.py`
turns them into report cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence as TySequence

import numpy as np

from .brackets import DivergentTailError, InvariantError, ratio_profile_sup
from .operators import METHOD_FAST, calderon, hilbert
from .sequences import (
    FiniteSequence,
    MuLike,
    PowerLogSequence,
    Rearrangement,
    Sequence,
    add_scaled,
    decreasing_rearrangement,
    finite,
    harmonic_number,
    power_log,
    sequence_to_json,
)
from .spaces import WEAK_L1, SpaceSpec, space_norm, weighted_sup, weighted_sup_diverges

TAIL_FINITE_SUPPORT = "finite_support_x"
TAIL_ANALYTIC = "analytic_comparison"

LOG2 = math.log(2.0)

DOMINATION_TOL = 1e-12  # relative slack of check_domination, window and tail


class NoWitnessFoundError(RuntimeError):
    """No candidate witness certifies; x may still lie in F (inconclusive)
    unless the message records a certified divergence."""


@dataclass(frozen=True)
class DominationCertificate:
    """mu(x) <= S mu(y) decided on [0, window) and past it.  From
    `f_norm_upper`, x is mu(x) in a wire kind (see `_recheck`)."""

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
        """The wire document; TypeError for a hand-built `Rearrangement`."""
        return {
            "x": sequence_to_json(self.x),
            "y": sequence_to_json(self.y),
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
            raise InvariantError("lower estimate exceeds upper estimate")

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

    @classmethod
    def for_window(cls, window: int) -> "GridConfig":
        """The certificate grid for an evaluation window: clamped to [16, 2^14]."""
        return cls(window=min(max(window, 16), 1 << 14))


DEFAULT_GRID = GridConfig()


def harmonic_calderon_closed_form(n):
    """(S mu(a))(n) for mu(k, a) = 1/(k+1) at an index or an index array: the
    head averages to H_{n+1}/(n+1) and the tail telescopes to 1/(n+1)."""
    if np.any(n < 0):
        raise ValueError("index must be nonnegative")
    return (harmonic_number(n + 1) + 1.0) / (n + 1.0)


# ---------------------------------------------------------------------------
# membership functional


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    c_a: float


def weak_l1_membership(x: MuLike, window: int = 1 << 14) -> MembershipResult:
    """c_a(x) = sup_n mu(n, x)(n+1)/log(n+2); member iff finite.  Divergence
    is read from an analytic profile before its head is built; a finite x is
    read on its whole support, an analytic one to the window.  A convergent
    sup beyond the double range raises OverflowError (inf means divergence)."""
    if weighted_sup_diverges(x, 1):
        return MembershipResult(False, math.inf)
    return MembershipResult(True, weighted_sup(decreasing_rearrangement(x), window, 1))


# ---------------------------------------------------------------------------
# certificates


def _domination_length(mu_x: Rearrangement, window: int) -> int:
    """Length of the explicit test of mu(x) <= S mu(y): the window of an
    analytic mu(x), else its support (past it the test is 0 <= S mu(y)), and
    1 for the empty x, so that every image has an entry."""
    return max(len(mu_x.values), 1) if mu_x.tail.is_zero else window


def _domination(
    mu_x: Rearrangement, lhs: np.ndarray, y: MuLike, image: np.ndarray
) -> tuple[np.ndarray, float, str]:
    """The one test of mu(x) <= S mu(y).  lhs is mu_x.head(window) and image
    one end of the bracket of S mu(y) on [0, window), window =
    `_domination_length`; the search reads lhs once per query.  Returns the
    window ratios mu_x(n) / image(n) (0 where mu_x(n) = 0), a certified sup
    of mu_x(n) / (S mu(y))(n) over n >= window (inf when no rule certifies
    one) and the tail argument used."""
    window = len(lhs)
    # a ratio beyond the double range reads inf: no double scale certifies it
    with np.errstate(divide="ignore", over="ignore"):
        ratios = np.divide(lhs, image, out=np.zeros(window), where=lhs > 0)
    t = mu_x.tail
    if t.is_zero:
        return ratios, 0.0, TAIL_FINITE_SUPPORT
    sups = []
    if isinstance(y, PowerLogSequence) and y.is_harmonic and y.scale > 0:
        # S mu(y)(n) = scale*(H_{n+1}+1)/(n+1) > scale*log(n+2)/(n+1)
        sups.append(ratio_profile_sup(t.alpha - 1.0, t.beta - 1.0, window, scale=t.scale / y.scale))
    mu_y = decreasing_rearrangement(y)
    head_y = mu_y.values[:window] if mu_y.tail.is_zero else mu_y.head(window)
    partial = float(np.sum(np.asarray(head_y, dtype=np.longdouble)))
    if partial > 0:
        # S mu(y)(n) >= P/(n+1) for n >= window, P = sum_{k<window} mu(y)(k)
        sups.append(ratio_profile_sup(t.alpha - 1.0, t.beta, window, scale=t.scale / partial))
    return ratios, (min(sups) if sups else math.inf), TAIL_ANALYTIC


def check_domination(x: MuLike, y: MuLike, window: int) -> DominationCertificate:
    """Re-verify mu(x) <= S mu(y) from an independent `calderon` evaluation of
    S mu(y), on the window or, for a finite x, on its whole support if that
    is longer.  For a finite x that image is computed on the support only:
    beyond it the test is 0 <= S mu(y), which holds.  The test reads the
    upper end of the bracket, values plus half-widths, and passes iff every
    window ratio and the tail sup are at most 1 + DOMINATION_TOL: the slack
    is purely relative, so it refutes a witness only beyond its own
    recomputed bracket."""
    mu_x = decreasing_rearrangement(x)
    window = mu_x.read_window(window)
    n = _domination_length(mu_x, window)
    s = calderon(decreasing_rearrangement(y), n)
    lhs = mu_x.head(n)  # one zero for the empty x
    ratios, tail_sup, tail_argument = _domination(mu_x, lhs, y, s.window_values + s.tail_halfwidth_per_index)
    bad = np.nonzero(ratios > 1.0 + DOMINATION_TOL)[0]
    return DominationCertificate(
        x=x,
        y=y,
        window=window,
        window_verified=bad.size == 0,
        tail_argument=tail_argument,
        tail_ok=tail_sup <= 1.0 + DOMINATION_TOL,
        first_violation=int(bad[0]) if bad.size else None,
    )


# ---------------------------------------------------------------------------
# F-norm upper estimates


@lru_cache(maxsize=64)
def _shape_calderon_floor(shape: PowerLogSequence, window: int) -> np.ndarray:
    """Lower end of S mu(shape) on [0, window) for an x-independent power-log
    shape, built once per (shape, window) and read-only: the closed form for
    the harmonic profile, `calderon` values minus half-widths otherwise."""
    if shape.is_harmonic:
        s_lo = shape.scale * harmonic_calderon_closed_form(np.arange(window))
    else:
        out = calderon(decreasing_rearrangement(shape), window)
        s_lo = out.window_values - out.tail_halfwidth_per_index
    s_lo.setflags(write=False)
    return s_lo


def _candidate_scale(
    mu_x: Rearrangement, lhs: np.ndarray, shape: MuLike, window: int
) -> tuple[float, str]:
    """Minimal c with mu(x) <= c * S mu(shape) certified on all of Z+,
    together with the tail argument used; lhs is mu_x.head(n), n =
    `_domination_length`.  The scale is certified from the lower end of
    S mu(shape): `_shape_calderon_floor` for a power-log shape, else
    `calderon` values minus half-widths, clamped to the largest double.  For
    a finite x it is read on the support only: past it mu(x) = 0, and every
    c passes.  Returns (inf, reason) when the shape cannot dominate any
    scaling of x, (0, reason) when the scale underflows."""
    n = len(lhs)
    if isinstance(shape, PowerLogSequence):
        s_lo = _shape_calderon_floor(shape, window)[:n]
    else:
        # An image entry that rounds to inf stands for a true S value above
        # the double range: the largest double is a lower end of it.
        out = calderon(decreasing_rearrangement(shape), n)
        s_lo = np.minimum(out.window_values - out.tail_halfwidth_per_index, np.finfo(float).max)
    if float(np.min(s_lo)) <= 0.0:
        return math.inf, "witness image not positive on window"
    ratios, tail_sup, tail_argument = _domination(mu_x, lhs, shape, s_lo)
    if math.isinf(tail_sup):
        return math.inf, "no analytic tail rule certifies this witness shape"
    c = max(float(np.max(ratios)), tail_sup)
    if c == 0.0:
        return c, "witness scale underflows"
    return (c, tail_argument) if c < math.inf else (c, "witness scale exceeds the double range")


@lru_cache(maxsize=128)
def _unit_norm(E: SpaceSpec, shape: PowerLogSequence, window: int) -> float:
    """Certified upper end of |shape|_E at scale 1, value plus tail half-width
    (inf when the E-norm diverges).  By homogeneity |c shape|_E = c |shape|_E,
    so c * _unit_norm(E, shape, window) prices the shape at scale c > 0."""
    try:
        nv = space_norm(E, shape, window)
    except DivergentTailError:
        return math.inf
    return nv.value + nv.tail_halfwidth


def _scaled_shape(shape: MuLike, c: float) -> MuLike:
    if isinstance(shape, PowerLogSequence):
        return PowerLogSequence(shape.alpha, shape.beta, shape.scale * c)
    if isinstance(shape, FiniteSequence):
        return finite(shape.values * c, shape.offset, shape.domain)
    if isinstance(shape, Rearrangement):
        t = shape.tail
        return Rearrangement(shape.values * c, PowerLogSequence(t.alpha, t.beta, t.scale * c))
    raise TypeError(f"not a shape: {type(shape)!r}")


def _recheck(x: MuLike, mu_x: Rearrangement, y: Sequence, window: int) -> DominationCertificate:
    """`check_domination` of y over mu_x = mu(x), recording mu(x) in a wire
    kind: `finite` (sorted |x| from index 0), or a power-log x's profile at
    |scale|.  A hand-built tailed `Rearrangement` has none and stays itself."""
    if mu_x.tail.is_zero:
        mu_wire = finite(mu_x.values)
    elif isinstance(x, PowerLogSequence):
        mu_wire = power_log(x.alpha, x.beta, abs(x.scale))
    else:
        mu_wire = mu_x
    return replace(check_domination(mu_x, y, window), x=mu_wire)


def f_norm_upper(
    x: MuLike, E: SpaceSpec = WEAK_L1, search: GridConfig = DEFAULT_GRID
) -> FNormEstimate:
    """Best certified upper bound of the F quasi-norm of x over the witness
    shapes, each at its minimal admissible scale: `upper` is the upper end of
    the bracket of |y|_E (value plus tail half-width), and candidates are
    ranked by it.  For E = weak-l1 the harmonic shape alone attains f = c*
    (module docstring); the lower bound there is the certified floor
    c_a(x) log 2 / 2.

    Outside weak-l1 the shapes are, in order, the harmonic profile, the
    `GENERATORS`, the truncations of mu(x) shorter than its support and
    mu(x) itself: finite, or the unit profile of an analytic tail (x = s g
    gives mu(x) = |s| mu(g)) unless that profile is already a shape.  A
    hand-built tailed `Rearrangement` is searched through its tail's profile.

    Each shape is priced once: a power-log shape g at scale c costs c times
    the cached upper end of |g|_E at scale 1 (by homogeneity, |c g|_E =
    c |g|_E; over weak-l1 the harmonic profile's unit norm is 1, so `upper`
    is c* itself), a finite shape the upper end of its own E-norm after
    scaling.  A shape whose norm diverges, overflows or underflows to 0 is
    skipped.  The first minimum wins, so ties go to the earlier shape.

    Candidates are checked on the grid window, or on the support of a
    finite x; power-log unit norms are read at the grid window.

    The certificate is `check_domination` on the mu(x) in hand, with x
    recorded as mu(x) in a wire kind (`_recheck`); the zero x has the empty witness.

    Raises NoWitnessFoundError when no shape certifies; for E = weak-l1 the
    error is accompanied by the certified divergence of c_a(x) (x is then
    genuinely outside F), otherwise the search is merely inconclusive.
    """
    floor = None
    if E.kind == "weak_l1" and weighted_sup_diverges(x, 1):
        # certified before any head resolution: no witness can dominate x
        raise NoWitnessFoundError(
            "no witness exists: c_a(x) diverges, x is outside the range space"
        )
    mu_x = decreasing_rearrangement(x)
    if E.kind == "weak_l1":
        # the floor lies below f, so it is a double wherever f is; c_a itself
        # may exceed the double range by up to 2/log 2, and is then read at mu(x)/4
        try:
            floor = weak_l1_membership(mu_x, search.window).c_a * LOG2 / 2.0
        except OverflowError:
            floor = weak_l1_membership(_scaled_shape(mu_x, 0.25), search.window).c_a * (2.0 * LOG2)
    window = mu_x.read_window(search.window)
    if mu_x.is_zero:
        return FNormEstimate(0.0, None if floor is None else 0.0, _recheck(x, mu_x, finite(()), window))

    lhs = mu_x.head(_domination_length(mu_x, window))  # the one head of the search
    shapes: list[Sequence] = [power_log(1.0, 0.0)]  # attains f = c* over weak-l1
    if E.kind != "weak_l1":
        shapes += [power_log(alpha, beta) for alpha, beta in GENERATORS]
        t = mu_x.tail
        support = len(mu_x.values) if t.is_zero else math.inf
        levels = sorted({min(L, window) for L in TRUNCATION_LEVELS})
        shapes += [finite(lhs[:L]) for L in levels if L < support]
        if t.is_zero:
            shapes.append(finite(mu_x.values))
        elif (t.alpha, t.beta) not in ((1.0, 0.0), *GENERATORS):
            shapes.append(power_log(t.alpha, t.beta))  # mu(x) = t.scale times it past the head

    reasons = []
    best: Optional[tuple[float, Sequence]] = None
    for shape in shapes:
        c, tail_argument = _candidate_scale(mu_x, lhs, shape, window)
        if math.isinf(c) or c == 0.0:
            reasons.append(tail_argument)
            continue
        y = _scaled_shape(shape, c)
        try:
            if isinstance(shape, PowerLogSequence):
                e_norm = c * _unit_norm(E, shape, search.window)  # |c g|_E = c |g|_E
            else:
                nv = space_norm(E, y, window)
                e_norm = nv.value + nv.tail_halfwidth  # the certified upper end
        except OverflowError:
            reasons.append("witness E-norm overflows")
            continue
        if math.isinf(e_norm):
            reasons.append("witness outside E")
            continue
        if e_norm == 0.0:
            reasons.append("witness E-norm underflows")
            continue
        if best is None or e_norm < best[0]:
            best = (e_norm, y)  # strict: ties keep the earlier shape
    if best is None:
        raise NoWitnessFoundError(
            f"no candidate witness certifies (inconclusive): {sorted(set(reasons))}"
        )
    upper, y = best
    lower = None if floor is None else min(floor, upper)
    return FNormEstimate(upper, lower, _recheck(x, mu_x, y, window))


# ---------------------------------------------------------------------------
# measurements (suites.py turns them into cases)


def f_quasitriangle_pairs(
    E: SpaceSpec,
    pairs: TySequence[tuple[FiniteSequence, FiniteSequence]],
    c_E: float,
    search: GridConfig = DEFAULT_GRID,
) -> list[tuple[float, float]]:
    """The two sides (f(x1+x2), 2 c_E^2 (f(x1) + f(x2))) of the F
    quasi-triangle inequality for each given pair, f read as `upper`."""
    sides = []
    for x1, x2 in pairs:
        f1 = f_norm_upper(x1, E, search).upper
        f2 = f_norm_upper(x2, E, search).upper
        f12 = f_norm_upper(add_scaled(x1, 1.0, x2, 1.0), E, search).upper
        sides.append((f12, 2.0 * c_E * c_E * (f1 + f2)))
    return sides


@dataclass
class MinimalityProbe:
    space: str
    probe_constant: float
    probe_constant_half: float
    containment_constant: float
    containment_ratio: float  # largest |x|_G / (C f(x)) over the members


def verify_minimality(
    E: SpaceSpec,
    catalog: TySequence[SpaceSpec],
    witnesses: TySequence[MuLike],
    window: int = 1 << 16,
    member_window: int = 1 << 12,
    search: GridConfig = DEFAULT_GRID,
) -> list[MinimalityProbe]:
    """Probe each candidate range space G in the catalog.

    Boundedness probe (desk scale): on the harmonic generator, the windowed
    ratio |S mu(a)|_G / |a|_E read at the window and at half the window.
    Containment |x|_G <= C |x|_F: on members x = S mu(y) generated from the
    witness list, the largest |x|_G / (C f(x)), with C the empirical operator
    constant over the same witnesses together with the members' own best
    witnesses and f(x) read as `upper`.
    """
    def image(y: MuLike) -> np.ndarray:
        return calderon(decreasing_rearrangement(y), member_window).window_values

    harmonic_img = _shape_calderon_floor(power_log(1.0, 0.0), window)
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
        g_full = space_norm(G, finite(harmonic_img)).value / denom
        g_half = space_norm(G, finite(harmonic_img[: window // 2])).value / denom
        C = max((space_norm(G, finite(img)).value / denom_y for img, denom_y in pool), default=0.0)
        ratio = max((space_norm(G, x).value / (C * est.upper) for x, est in zip(members, estimates)),
                    default=0.0)
        probes.append(MinimalityProbe(G.label, g_full, g_half, C, ratio))
    return probes


def hilbert_upper_constant(
    l1_family: TySequence[FiniteSequence], out_window: int, check_len: int
) -> float:
    """Smallest C1 with mu(H x)(n) <= C1 (S mu(x))(n) on the certified
    rearrangement heads, of at most check_len entries, of H x read on
    [-out_window, out_window], over the family."""
    worst = 0.0
    for x in l1_family:
        h = hilbert(x, -out_window, out_window, METHOD_FAST)
        mu_h = np.sort(np.abs(h.window_values))[::-1]
        # the first head entries of the windowed rearrangement are the true
        # ones as long as they exceed the window-edge envelope |x|_1/(pi d)
        support_radius = max(abs(x.offset), abs(x.end - 1)) + 1
        edge = x.l1() / (math.pi * max(out_window - support_radius, 1))
        head = min(check_len, int(np.searchsorted(-mu_h, -edge)))
        if head == 0:
            continue
        smu = calderon(decreasing_rearrangement(x), head).window_values
        worst = max(worst, float(np.max(mu_h[:head] / smu)))
    return worst
