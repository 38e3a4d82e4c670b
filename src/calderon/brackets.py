"""Certified brackets for tails of power-log series.

Everything here reduces to sums of the shape

    sum_{k >= N} log(k+2)**beta / (k+1)**s          (optionally times 1/k)

with s > 1, beta >= 0.  The bounds come from two elementary comparisons:

* log(k+2) and log(k+1) differ by a factor at most log(N+2)/log(N+1) on
  k >= N, and 1/k sits between 1/(k+1) and (N+1)/N * 1/(k+1);
* the integral test for the decreasing integrand (log u)**beta * u**(-s),
  whose integral has the closed form
      (s-1)**-(beta+1) * Gamma(beta+1, (s-1) log U).

The resulting [lower, upper] interval is exact mathematics up to floating
point roundoff; callers shrink it by pushing N outward.  Every certified series
follows one policy: terms summed explicitly in longdouble (`explicit_sum`) up
to a start index doubled outward until the bracket of the unit-scale profile
(shape and fixed weights of the space, never the data's scale) has half-width
at most TAIL_TOL or the start reaches TAIL_CAP, where the wider bracket is
returned as it stands; `tail_sum` then multiplies it by the data's scale c
once.  So a half-width is at most TAIL_TOL * c, or the start reached
TAIL_CAP, and every bracket scales with its input (at a power-of-two c, bit
for bit).  The explicit sum holds at most SUM_BLOCK terms in memory at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAIL_TOL = 1e-10
TAIL_CAP = 2 ** 24
SUM_BLOCK = 2 ** 16
_PAIRWISE_BLOCK = 128  # numpy sums a run of at most this many terms without splitting it


class DivergentTailError(ArithmeticError):
    """Requested sum has a non-summable tail."""


class InvariantError(ValueError):
    """An internal invariant broke: a fault of the program, not of its input."""


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise InvariantError(f"empty bracket [{self.lo}, {self.hi}]")

    @property
    def mid(self) -> float:
        # a zero-width bracket keeps its value: 0.5 * (v + v) overflows above ~9e307
        return self.lo if self.lo == self.hi else 0.5 * (self.lo + self.hi)

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def scaled(self, c: float) -> "Bracket":
        if c < 0:
            raise InvariantError("bracket scale must be nonnegative")
        return Bracket(self.lo * c, self.hi * c)

    def shifted(self, t: float) -> "Bracket":
        return Bracket(self.lo + t, self.hi + t)

    def __add__(self, other: "Bracket") -> "Bracket":
        return Bracket(self.lo + other.lo, self.hi + other.hi)


ZERO_BRACKET = Bracket(0.0, 0.0)


def powerlog_tail(
    alpha: float,
    beta: float,
    start: int,
    *,
    shift_power: float = 0.0,
    harmonic_weight: bool = False,
    weight: float = 1.0,
) -> Bracket:
    """Bracket for sum_{k >= start} weight * log(k+2)**beta / (k+1)**(alpha+shift_power) * w(k)

    with w(k) = 1/k when harmonic_weight else 1, on the unit-scale profile:
    weight is a fixed positive weight of the space (theta of lorentz:power),
    never the data's scale.  start must be at least min_tail_start, so that
    the integral test brackets sum_{u >= U} of (log u)**beta * u**(-s),
    U = start + 1, between I and I + (log U)**beta U**(-s).
    """
    s = alpha + shift_power + (1.0 if harmonic_weight else 0.0)
    if s <= 1.0:
        raise DivergentTailError(
            f"tail exponent {s} <= 1 (alpha={alpha}, shift={shift_power})"
        )
    if start < min_tail_start(alpha, beta, shift_power=shift_power, harmonic_weight=harmonic_weight):
        raise ValueError(f"tail start {start} below safe comparison region")
    from scipy import special as _sp  # deferred: most CLI calls never reach a tail integral

    U = start + 1
    lam = s - 1.0
    I = float(_sp.gammaincc(beta + 1.0, lam * math.log(U)) * _sp.gamma(beta + 1.0)) / lam ** (beta + 1.0)
    phi = math.log(U) ** beta * float(U) ** (-s)
    fac = (math.log(start + 2) / math.log(start + 1)) ** beta
    if harmonic_weight:
        fac *= (start + 1) / start
    return Bracket(weight * I, weight * fac * (I + phi))


def min_tail_start(
    alpha: float,
    beta: float,
    *,
    shift_power: float = 0.0,
    harmonic_weight: bool = False,
) -> int:
    """Smallest start from which powerlog_tail applies: 1 (2 with the
    harmonic weight) and U - 1, where (log u)**beta * u**(-s) is nonincreasing
    on [U, inf) once log U >= beta/s."""
    s = alpha + shift_power + (1.0 if harmonic_weight else 0.0)
    monotone = 2 if beta <= 0.0 else max(2, math.ceil(math.exp(beta / s)))
    return max(2 if harmonic_weight else 1, monotone - 1)


def choose_tail_start(
    alpha: float,
    beta: float,
    min_start: int,
    tol: float,
    *,
    shift_power: float = 0.0,
    harmonic_weight: bool = False,
    weight: float = 1.0,
) -> tuple[int, Bracket]:
    """Pick a start index whose unit-scale tail bracket (powerlog_tail) has
    half-width <= tol, doubling outward from min_start up to TAIL_CAP.
    Returns the best (start, bracket) found: at the cap the bracket may be
    wider than tol, and it is still certified.
    """
    series = dict(shift_power=shift_power, harmonic_weight=harmonic_weight)
    start = max(min_start, min_tail_start(alpha, beta, **series))
    best = powerlog_tail(alpha, beta, start, weight=weight, **series)
    while best.halfwidth > tol and start < TAIL_CAP:
        start = min(TAIL_CAP, 2 * start)
        best = powerlog_tail(alpha, beta, start, weight=weight, **series)
    return start, best


def explicit_sum(profile, first: int, stop: int, term) -> float:
    """sum_{first <= k < stop} term(profile(k), k), accumulated in longdouble
    (0.0 for an empty range).  profile maps a float64 array of consecutive
    indices to the values there; term combines the longdouble values with
    the float64 indices.

    The terms are built and summed in blocks of at most SUM_BLOCK.  A range
    is split where numpy's pairwise summation splits it, n//2 rounded down
    to a multiple of 8, so the blocked sum equals one np.sum over the whole
    range bit for bit."""
    if stop <= first:
        return 0.0
    return float(_blocked_sum(profile, first, stop, term))


def _blocked_sum(profile, first: int, stop: int, term):
    n = stop - first
    if n > SUM_BLOCK and n > _PAIRWISE_BLOCK:
        mid = first + n // 2 - (n // 2) % 8
        return _blocked_sum(profile, first, mid, term) + _blocked_sum(profile, mid, stop, term)
    ks = np.arange(first, stop, dtype=np.float64)
    return np.sum(term(np.asarray(profile(ks), dtype=np.longdouble), ks))


def stored_profile(values, offset: int = 0):
    """The profile k -> values[k - offset] of a stored array, for explicit_sum."""

    def profile(ks):
        i = int(ks[0]) - offset
        return values[i : i + len(ks)]

    return profile


def tail_sum(profile, first: int, term, alpha: float, beta: float, scale: float, **tail) -> tuple[int, float, Bracket]:
    """The certified tail step for data at scale `scale`: (start, explicit,
    rem) with start chosen on the unit-scale profile by
    choose_tail_start(alpha, beta, first, TAIL_TOL, **tail), explicit the sum
    of term(profile(k), k) over [first, start), and rem the unit bracket of
    the remaining power-log series from start on, times the scale."""
    start, rem = choose_tail_start(alpha, beta, first, TAIL_TOL, **tail)
    return start, explicit_sum(profile, first, start, term), rem.scaled(scale)


def powerlog_profile(k, alpha: float, beta: float, scale: float):
    """scale * log(k+2)**beta / (k+1)**alpha at the indices k (float64).

    A scale of magnitude 2**512 or more is split as m * 2**e with |m| in
    [0.5, 1): the profile is formed at scale m and rescaled once, so the
    product with the log factor cannot overflow on the way.  The power-of-two
    rescale is exact, so the values are those of the direct formula wherever
    that formula stays inside the double range.  Below 2**512 only a log
    factor above 2**512 could overflow the product, and the direct formula
    is kept: it saves a pass over k."""
    k = np.asarray(k, dtype=np.float64)
    if abs(scale) < 2.0 ** 512:
        return scale * np.log(k + 2.0) ** beta / (k + 1.0) ** alpha
    m, e = math.frexp(scale)
    return np.ldexp(m * np.log(k + 2.0) ** beta / (k + 1.0) ** alpha, e)


def ratio_profile_sup(a: float, b: float, start: int, scale: float = 1.0) -> float:
    """Certified sup over integer t >= start of scale * log(t+2)**b * (t+1)**(-a).

    Finite exactly when a > 0, or a == 0 with b <= 0.  The profile is
    nondecreasing then nonincreasing with real peak at t* = exp(b/a) - 2, so
    the discrete sup sits at start or at the integers flanking t*.
    """
    if scale == 0.0:
        return 0.0
    if scale < 0:
        raise ValueError("scale must be nonnegative")

    def psi(t: float) -> float:
        return float(powerlog_profile(t, a, b, scale))

    if a < 0.0 or (a == 0.0 and b > 0.0):
        return math.inf
    if a == 0.0 or b <= 0.0 or b / a <= math.log(start + 2.0):
        return psi(float(start))
    log_tstar = b / a
    if log_tstar > 36.0:  # peak index beyond exact float indexing; use the real max
        log_peak = math.log(scale) + b * math.log(log_tstar) - a * log_tstar
        # (t+1)**-a at the peak: t+2 = e^{b/a}, and (t+1) >= (t+2)/2 there
        return math.exp(log_peak) * 2.0 ** a
    tstar = math.exp(log_tstar) - 2.0
    lo = max(start, math.floor(tstar))
    cands = [float(start), float(lo), float(lo + 1), float(lo + 2)]
    return max(psi(t) for t in cands if t >= start)
