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
to a start index doubled outward until the bracket's half-width is at most
TAIL_TOL or the start reaches TAIL_CAP (`tail_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

TAIL_TOL = 1e-10
TAIL_CAP = 2 ** 24


class DivergentTailError(ArithmeticError):
    """Requested sum has a non-summable tail."""


class TailToleranceError(ArithmeticError):
    """Bracket half-width cannot reach the requested tolerance within the cap."""


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty bracket [{self.lo}, {self.hi}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def scaled(self, c: float) -> "Bracket":
        if c < 0:
            raise ValueError("bracket scale must be nonnegative")
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
    scale: float = 1.0,
) -> Bracket:
    """Bracket for sum_{k >= start} scale * log(k+2)**beta / (k+1)**(alpha+shift_power) * w(k)

    with w(k) = 1/k when harmonic_weight else 1.  start must be at least
    min_tail_start, so that the integral test brackets sum_{u >= U} of
    (log u)**beta * u**(-s), U = start + 1, between I and I + (log U)**beta U**(-s).
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if scale == 0.0:
        return ZERO_BRACKET
    s = alpha + shift_power + (1.0 if harmonic_weight else 0.0)
    if s <= 1.0:
        raise DivergentTailError(
            f"tail exponent {s} <= 1 (alpha={alpha}, shift={shift_power})"
        )
    if start < min_tail_start(alpha, beta, shift_power=shift_power, harmonic_weight=harmonic_weight):
        raise ValueError(f"tail start {start} below safe comparison region")
    U = start + 1
    lam = s - 1.0
    I = float(_sp.gammaincc(beta + 1.0, lam * math.log(U)) * _sp.gamma(beta + 1.0)) / lam ** (beta + 1.0)
    phi = math.log(U) ** beta * float(U) ** (-s)
    fac = (math.log(start + 2) / math.log(start + 1)) ** beta
    if harmonic_weight:
        fac *= (start + 1) / start
    return Bracket(scale * I, scale * fac * (I + phi))


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
    scale: float = 1.0,
) -> tuple[int, Bracket]:
    """Pick a start index whose tail bracket has half-width <= tol, doubling
    outward from min_start up to TAIL_CAP.  Returns the best (start, bracket)
    found; callers that need the tolerance met must check and raise
    TailToleranceError.
    """
    start = max(min_start, min_tail_start(alpha, beta, shift_power=shift_power, harmonic_weight=harmonic_weight))
    best = powerlog_tail(alpha, beta, start, shift_power=shift_power, harmonic_weight=harmonic_weight, scale=scale)
    while best.halfwidth > tol and start < TAIL_CAP:
        start = min(TAIL_CAP, 2 * start)
        best = powerlog_tail(alpha, beta, start, shift_power=shift_power, harmonic_weight=harmonic_weight, scale=scale)
    return start, best


def explicit_sum(profile, first: int, stop: int, term) -> float:
    """sum_{first <= k < stop} term(profile(k), k), accumulated in longdouble
    (0.0 for an empty range).  profile maps a float64 index array to values;
    term combines the longdouble values with the float64 indices."""
    if stop <= first:
        return 0.0
    ks = np.arange(first, stop, dtype=np.float64)
    return float(np.sum(term(np.asarray(profile(ks), dtype=np.longdouble), ks)))


def tail_sum(profile, first: int, term, alpha: float, beta: float, **tail) -> tuple[int, float, Bracket]:
    """The certified tail step: (start, explicit, rem) with start chosen by
    choose_tail_start(alpha, beta, first, TAIL_TOL, **tail), explicit the sum
    of term(profile(k), k) over [first, start), and rem the bracket of the
    remaining power-log series from start on."""
    start, rem = choose_tail_start(alpha, beta, first, TAIL_TOL, **tail)
    return start, explicit_sum(profile, first, start, term), rem


def powerlog_profile(k, alpha: float, beta: float, scale: float):
    """scale * log(k+2)**beta / (k+1)**alpha at the indices k (float64)."""
    k = np.asarray(k, dtype=np.float64)
    return scale * np.log(k + 2.0) ** beta / (k + 1.0) ** alpha


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
