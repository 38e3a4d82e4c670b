"""Symmetric sequence-space functionals and their axioms.

Every functional here depends on the input only through its decreasing
rearrangement mu, so rearrangement invariance holds structurally.  Supported
spaces:

* lp              (sum |x(n)|^p)^(1/p), finite p >= 1
* weak_l1         sup (n+1) mu(n)
* llog            sum mu(n)/(n+1)
* lorentz_phi     sum mu(n) (phi(n+1) - phi(n)), phi = log1p or t^theta
* m1inf           sup (sum_{k<=n} mu(k)) / log(2+n)
* sum_weakl1_linf inf over splittings x = x1 + x2 of |x1|_weak + |x2|_sup,
                  which equals mu(0) exactly

Values are certified: a finite mu is read on its whole support, an analytic
one explicitly and then by analytic tail brackets for the power-log family
(every series through `sequences.series`, the m1inf mass and the log1p
split included; both weighted sups through `weighted_sup`).  A functional
that genuinely diverges reports an infinite value (`NormValue.is_infinite`);
one that converges beyond the double range raises OverflowError.  Summatory
norms whose tail integral diverges raise DivergentTailError since no finite
bracket exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brackets import (
    TAIL_TOL,
    Bracket,
    DivergentTailError,
    InvariantError,
    powerlog_tail,
    profile_grows,
    ratio_profile_sup,
)
from .sequences import (
    FiniteSequence,
    MuLike,
    PowerLogSequence,
    Rearrangement,
    decreasing_rearrangement,
    harmonic_number,
    json_number,
    json_safe_float,
    series,
)

INFINITE = math.inf

_SPACE_KINDS = ("lp", "weak_l1", "llog", "lorentz_phi", "m1inf", "sum_weakl1_linf")


@dataclass(frozen=True)
class PhiTemplate:
    """Concave increasing phi with phi(0)=0: log1p is phi(t)=log(1+t);
    power is phi(t)=t**theta with theta in (0, 1]."""

    name: str
    theta: Optional[float] = None

    def __post_init__(self):
        if self.name == "log1p":
            if self.theta is not None:
                raise ValueError("log1p template takes no parameter")
        elif self.name == "power":
            if self.theta is None or not (0 < self.theta <= 1):
                raise ValueError("power template needs theta in (0, 1]")
        else:
            raise ValueError(f"unknown phi template: {self.name!r}")

    def increments(self, n: np.ndarray) -> np.ndarray:
        """phi(n+1) - phi(n) for integer n >= 0."""
        n = np.asarray(n, dtype=np.float64)
        if self.name == "log1p":
            return np.log1p(1.0 / (n + 1.0))
        return (n + 1.0) ** self.theta - n ** self.theta


LOG1P = PhiTemplate("log1p")


def _check_lp_exponent(p: Optional[float]) -> None:
    # the tail formulas need a finite p; the sup norm mu(0) is the `sum` space's value
    if p is None or not 1.0 <= p < math.inf:
        raise ValueError("lp space needs a finite p >= 1")


@dataclass(frozen=True)
class SpaceSpec:
    kind: str
    p: Optional[float] = None
    phi: Optional[PhiTemplate] = None

    def __post_init__(self):
        if self.kind not in _SPACE_KINDS:
            raise ValueError(f"unknown space kind: {self.kind!r}")
        if self.kind == "lp":
            _check_lp_exponent(self.p)
        elif self.p is not None:
            raise ValueError(f"space {self.kind} takes no exponent")
        if self.kind == "lorentz_phi":
            if self.phi is None:
                raise ValueError("lorentz_phi space needs a phi template")
        elif self.phi is not None:
            raise ValueError(f"space {self.kind} takes no phi template")

    @property
    def label(self) -> str:
        if self.kind == "lp":
            return f"lp({self.p:g})"
        if self.kind == "lorentz_phi":
            t = self.phi
            return f"lorentz_phi({t.name}{'' if t.theta is None else f'={t.theta:g}'})"
        return self.kind


WEAK_L1 = SpaceSpec("weak_l1")
LLOG = SpaceSpec("llog")
M1INF = SpaceSpec("m1inf")
SUM_SPACE = SpaceSpec("sum_weakl1_linf")


def lp_space(p: float) -> SpaceSpec:
    return SpaceSpec("lp", p=p)


def space_spec_to_json(spec: SpaceSpec) -> dict:
    d = {"space": spec.kind}
    if spec.p is not None:
        d["p"] = float(spec.p)
    if spec.phi is not None:
        d["phi"] = "log1p" if spec.phi.name == "log1p" else {"power": float(spec.phi.theta)}
    return d


def space_spec_from_json(d: dict) -> SpaceSpec:
    if not isinstance(d, dict):
        raise ValueError("space document must be a JSON object")
    extra = set(d) - {"space", "p", "phi"}
    if extra:
        raise ValueError(f"unknown fields in space document: {sorted(extra)}")
    kind = d.get("space")
    p = d.get("p")
    phi_doc = d.get("phi")
    phi = None
    if phi_doc is not None:
        if phi_doc == "log1p":
            phi = LOG1P
        elif isinstance(phi_doc, dict) and set(phi_doc) == {"power"}:
            phi = PhiTemplate("power", json_number(phi_doc["power"], "phi power"))
        else:
            raise ValueError(f"unknown phi descriptor: {phi_doc!r}")
    return SpaceSpec(kind, p=None if p is None else json_number(p, "p"), phi=phi)


@dataclass(frozen=True)
class NormValue:
    value: float
    tail_halfwidth: float
    window: int

    def __post_init__(self):
        if self.value < 0 or self.tail_halfwidth < 0:
            raise InvariantError("norm values and half-widths are nonnegative")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    def to_json_dict(self) -> dict:
        return {
            "value": json_safe_float(self.value),
            "tail_halfwidth": float(self.tail_halfwidth),
            "window": int(self.window),
        }


def _infinite(window: int) -> NormValue:
    return NormValue(INFINITE, 0.0, window)


def _from_bracket(b: Bracket, window: int) -> NormValue:
    """OverflowError for an end beyond the double range: inf means divergence."""
    if math.isinf(b.hi):
        raise OverflowError("a certified bracket end exceeds the double range")
    return NormValue(b.mid, b.halfwidth, window)


# ---------------------------------------------------------------------------
# individual functionals


def lp_norm(x: MuLike, p: float, window: int = 65536) -> NormValue:
    """(sum |x(n)|^p)^(1/p) with certified tail bracket; finite supports as
    mu(0) (sum (mu(n)/mu(0))^p)^(1/p), which cannot overflow."""
    _check_lp_exponent(p)
    mu = decreasing_rearrangement(x)
    head = mu.values
    if mu.tail.is_zero:
        m0 = float(head[0]) if len(head) else 1.0
        ratio_sum = float(np.sum((np.asarray(head, dtype=np.longdouble) / m0) ** p))
        return NormValue(m0 * ratio_sum ** (1.0 / p), 0.0, max(window, len(head)))
    if mu.tail.alpha * p <= 1.0:
        raise DivergentTailError(
            f"lp tail diverges: p*alpha = {p * mu.tail.alpha:g} <= 1 for the analytic tail"
        )

    def power(v, ks):
        return v ** p

    start, explicit, rem = series(mu, power, power=p)
    total = rem.shifted(explicit)
    b = Bracket(total.lo ** (1.0 / p), total.hi ** (1.0 / p))
    return _from_bracket(b, max(window, start))


def weighted_sup(mu: Rearrangement, window: int, log_power: int) -> float:
    """sup_n mu(n) (n+1) / log(n+2)**log_power for log_power in {0, 1}: a
    finite mu read on its whole support, an analytic one to the window with
    its tail closed by `ratio_profile_sup` (inf when it grows).  Formed on
    mu / 2**e, e the exponent of mu(0), so no product overflows and the
    rescale is exact; a convergent sup beyond the double range raises
    OverflowError, over the window or past it (inf means divergence)."""
    t = mu.tail
    head = mu.values if t.is_zero else mu.head(window)
    name = ("the weak-l1 quasinorm", "c_a")[log_power]
    sup = 0.0
    if len(head):
        e = math.frexp(head[0])[1]
        ns = np.arange(len(head), dtype=np.float64)
        scaled = np.ldexp(head, -e) * (ns + 1.0)
        if log_power:
            scaled = scaled / np.log(ns + 2.0)
        try:
            sup = math.ldexp(float(np.max(scaled)), e)
        except OverflowError:
            raise OverflowError(f"{name} over the window exceeds the double range") from None
    if t.is_zero:
        return sup
    a, b = t.alpha - 1.0, t.beta - log_power
    tail_sup = ratio_profile_sup(a, b, len(head), scale=t.scale)
    if math.isinf(tail_sup) and not profile_grows(a, b):
        raise OverflowError(f"{name} past the window exceeds the double range")
    return max(sup, tail_sup)


def weighted_sup_diverges(x: MuLike, log_power: int) -> bool:
    """Whether sup_n mu(n) (n+1) / log(n+2)**log_power is infinite, read from
    the power-log profile of x or of its rearrangement's tail before any head
    is built: the ratio is the profile (alpha - 1, beta - log_power)."""
    t = x.tail if isinstance(x, Rearrangement) else x
    return isinstance(t, PowerLogSequence) and not t.is_zero and profile_grows(t.alpha - 1.0, t.beta - log_power)


def weak_l1_quasinorm(x: MuLike, window: int = 65536) -> NormValue:
    """sup_n (n+1) mu(n); infinite when the analytic tail grows faster than 1/n."""
    if weighted_sup_diverges(x, 0):
        return _infinite(window)
    mu = decreasing_rearrangement(x)
    return NormValue(weighted_sup(mu, window, 0), 0.0, mu.read_window(window))


def llog_norm(x: MuLike, window: int = 65536) -> NormValue:
    """sum_n mu(n)/(n+1) with certified tail bracket."""

    def over_n1(v, ks):
        return v / (ks + 1.0)

    start, explicit, rem = series(decreasing_rearrangement(x), over_n1, shift_power=1.0)
    return _from_bracket(rem.shifted(explicit), max(window, start))


def lorentz_phi_norm(x: MuLike, phi: PhiTemplate, window: int = 65536) -> NormValue:
    """sum_n mu(n) (phi(n+1) - phi(n)) with certified tail bracket."""
    mu = decreasing_rearrangement(x)
    t = mu.tail

    def weighted(v, ks):
        return v * phi.increments(ks)

    if t.is_zero:
        start, explicit, rem = series(mu, weighted)
    elif phi.name == "log1p":
        # log(1+1/(n+1)) = 1/(n+1) - delta, 0 < delta < 1/(2(n+1)^2): the
        # tail lies between the shift-1 sum minus half the shift-2 sum and
        # the shift-1 sum.  The start is chosen on the shift-1 series: the
        # shift-2 one is safe no later and, with an extra factor 1/U, no
        # wider there.
        start, explicit, s1 = series(mu, weighted, shift_power=1.0, tol=TAIL_TOL / 2)
        s2 = powerlog_tail(t.alpha, t.beta, start, shift_power=2.0).scaled(t.scale)
        rem = Bracket(max(0.0, s1.lo - s2.hi / 2.0), s1.hi)
    else:
        theta = phi.theta
        if t.alpha <= theta:
            raise DivergentTailError(
                f"lorentz_phi tail diverges: alpha = {t.alpha:g} <= theta = {theta:g}"
            )
        # theta*(n+1)^(theta-1) <= phi(n+1)-phi(n) <= theta*n^(theta-1)
        #                       <= theta*(n+1)^(theta-1) * (1+1/n)
        start, explicit, rem = series(mu, weighted, shift_power=1.0 - theta, weight=theta)
        rem = Bracket(rem.lo, rem.hi * (1.0 + 1.0 / start))
    return _from_bracket(rem.shifted(explicit), max(window, start))


def marcinkiewicz_norm(x: MuLike, window: int = 65536) -> NormValue:
    """sup_n (sum_{k<=n} mu(k)) / log(2+n).

    Finite supports are exact.  Analytic tails: the partial sums grow like
    n^(1-alpha) (alpha < 1) or log^(beta+1) (alpha = 1, beta > 0), so the sup
    is infinite exactly where the weak-l1 quasinorm is; in the other cases a
    certified beyond-window bound shows the window sup is the sup.
    """
    if weighted_sup_diverges(x, 0):
        return _infinite(window)
    mu = decreasing_rearrangement(x)
    t = mu.tail
    head = mu.values if t.is_zero else mu.head(window)
    W = len(head)
    if not W:
        return NormValue(0.0, 0.0, window)
    csum = np.cumsum(np.asarray(head, dtype=np.longdouble))
    ns = np.arange(W, dtype=np.float64)
    window_sup = float(np.max(csum / np.log(2.0 + ns)))
    if t.is_zero:
        # beyond the support the numerator is constant and the denominator grows
        return NormValue(window_sup, 0.0, max(window, W))
    head_total = float(csum[-1])
    if math.isinf(head_total):
        raise OverflowError("the m1inf mass over the window exceeds the double range")
    if t.alpha > 1.0:
        # whole remaining mass past the window, its tail target relative to
        # the unit-scale mass
        _, gap, rem = series(mu, lambda v, ks: v, W, tol=max(1e-9, 1e-6 * head_total / t.scale))
        beyond = (head_total + gap + rem.hi) / math.log(2.0 + W)
    else:
        # alpha = 1, beta = 0: partial sums are scale*(H at the index) up to the
        # head/profile offset; H_{n+1} <= log(n+2) + gamma + 1 bounds the ratio.
        offset = head_total - harmonic_number(W) * t.scale
        beyond = t.scale * (1.0 + 1.6 / math.log(2.0 + W)) + max(offset, 0.0) / math.log(2.0 + W)
    if beyond <= window_sup:
        return NormValue(window_sup, 0.0, max(window, W))
    b = Bracket(window_sup, beyond)
    return _from_bracket(b, max(window, W))


def sum_space_quasinorm(x: MuLike, window: int = 65536) -> NormValue:
    """inf over splittings x = x1 + x2 of |x1|_weak + |x2|_sup, which on
    counting measure is exactly mu(0, x).

    Proof: for every y, |y|_sup = mu(0, y) <= sup_n (n+1) mu(n, y) = |y|_weak.
    Hence for every split x = x1 + x2,

        mu(0, x) <= |x1|_sup + |x2|_sup <= |x1|_weak + |x2|_sup,

    and the split x1 = 0, x2 = x attains the bound.  The value is therefore
    exact (half-width 0) for finite and analytic inputs alike.  A power-log
    x is read at its peak, on an index array as its sorted head reads it.
    """
    if isinstance(x, PowerLogSequence):
        top = abs(float(x.values_at(np.arange(x.peak_index, x.peak_index + 1))[0]))
        return _from_bracket(Bracket(top, top), window)
    mu = decreasing_rearrangement(x)
    return NormValue(mu.value_at(0), 0.0, mu.read_window(window))


def space_norm(spec: SpaceSpec, x: MuLike, window: int = 65536) -> NormValue:
    """The norm of x in the space; OverflowError when x is finitely supported
    and its (finite) value exceeds the double range, since an infinite value
    means divergence."""
    nv = {  # SpaceSpec admits exactly these kinds
        "lp": lambda: lp_norm(x, spec.p, window),
        "weak_l1": lambda: weak_l1_quasinorm(x, window),
        "llog": lambda: llog_norm(x, window),
        "lorentz_phi": lambda: lorentz_phi_norm(x, spec.phi, window),
        "m1inf": lambda: marcinkiewicz_norm(x, window),
        "sum_weakl1_linf": lambda: sum_space_quasinorm(x, window),
    }[spec.kind]()
    finite_input = isinstance(x, FiniteSequence) or (isinstance(x, Rearrangement) and x.tail.is_zero)
    if nv.is_infinite and finite_input:
        raise OverflowError(f"the {spec.label} value of a finite input exceeds the double range")
    return nv


# ---------------------------------------------------------------------------
# symmetric-space axioms, randomized


@dataclass
class AxiomCheckResult:
    space: str
    trials: int
    monotonicity_violations: int
    rearrangement_violations: int
    homogeneity_max_rel_dev: float
    quasi_triangle_modulus: float
    worst_triangle_pair: Optional[dict]


AXIOM_MAX_SUPPORT = 48


def axiom_check(spec: SpaceSpec, trials: int = 200, seed: int = 1) -> AxiomCheckResult:
    """Randomized check of the symmetric-space axioms on finite supports:
    monotonicity (|y| <= |x| implies |y| <= |x| in norm), rearrangement
    invariance (exact), homogeneity, and the empirical quasi-triangle modulus
    sup |x+y| / (|x| + |y|) over supports shorter than AXIOM_MAX_SUPPORT.
    The (x, x) pair is always included so the recorded modulus is at least 1.
    """
    from .families import family_rng
    from .sequences import finite, sequence_to_json

    rng = family_rng(spec.label, seed)
    mono_bad = 0
    rearr_bad = 0
    homo_dev = 0.0
    c_mod = 0.0
    worst = None
    for _ in range(trials):
        n = int(rng.integers(1, AXIOM_MAX_SUPPORT))
        vals = rng.standard_normal(n) * (10.0 ** rng.integers(-1, 2))
        x = finite(vals)
        nx = space_norm(spec, x).value
        # monotonicity: shrink each entry by a random factor in [0, 1]
        y = finite(vals * rng.uniform(0.0, 1.0, size=n))
        if space_norm(spec, y).value > nx * (1.0 + 1e-12) + 1e-300:
            mono_bad += 1
        # rearrangement invariance: a permutation must not change the value
        perm = finite(rng.permutation(vals))
        if space_norm(spec, perm).value != nx:
            rearr_bad += 1
        # homogeneity
        c = float(rng.uniform(0.1, 10.0))
        ncx = space_norm(spec, finite(c * vals)).value
        if nx > 0:
            homo_dev = max(homo_dev, abs(ncx - c * nx) / (c * nx))
        # quasi-triangle: a fresh second summand, plus the (x, x) pair
        m = int(rng.integers(1, AXIOM_MAX_SUPPORT))
        w_vals = np.zeros(max(n, m))
        w_vals[:m] = rng.standard_normal(m)
        z = finite(w_vals)
        for other in (z, x):
            s = finite(x.dense(0, max(n, len(other.values) + other.offset))
                       + other.dense(0, max(n, len(other.values) + other.offset)))
            denom = nx + space_norm(spec, other).value
            if denom > 0:
                ratio = space_norm(spec, s).value / denom
                if ratio > c_mod:
                    c_mod = ratio
                    worst = {
                        "x": sequence_to_json(x),
                        "y": sequence_to_json(other),
                        "ratio": ratio,
                    }
    return AxiomCheckResult(
        space=spec.label,
        trials=trials,
        monotonicity_violations=mono_bad,
        rearrangement_violations=rearr_bad,
        homogeneity_max_rel_dev=homo_dev,
        quasi_triangle_modulus=c_mod,
        worst_triangle_pair=worst,
    )
