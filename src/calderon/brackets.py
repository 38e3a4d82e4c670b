"""Certified brackets for tails of power-log series.

Everything here reduces to sums of the shape

    sum_{k >= N} log(k+2)**beta / (k+1)**s          (optionally times 1/k)

with s > 1, beta >= 0.  The bounds come from two elementary comparisons:

* log(k+2) and log(k+1) differ by a factor at most log(N+2)/log(N+1) on
  k >= N, and 1/k sits between 1/(k+1) and (N+1)/N * 1/(k+1);
* the integral test for the decreasing integrand (log u)**beta * u**(-s),
  whose integral has the closed form
      (s-1)**-(beta+1) * Gamma(beta+1, (s-1) log U),
  with the upper incomplete gamma function evaluated by `math` alone.

The resulting [lower, upper] interval is exact mathematics up to floating
point roundoff; callers shrink it by pushing N outward.  Every certified series
follows one policy, applied by `sequences.series`: terms summed explicitly in
longdouble (`explicit_sum`) up to a start index doubled outward until the
bracket of the unit-scale profile (shape and fixed weights of the space,
never the data's scale) has half-width at most tol (TAIL_TOL by default) or
the start reaches TAIL_CAP, where the wider bracket is returned as it stands;
it is then multiplied by the data's scale c once.  So a half-width is at most
tol * c, or the start reached TAIL_CAP, and every bracket scales with its
input (at a power-of-two c, bit for bit).  SUM_BLOCK bounds the terms held.
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
        # 0.5 * (lo + hi) overflows above ~9e307; a zero width keeps a subnormal
        return self.lo if self.lo == self.hi else 0.5 * self.lo + 0.5 * self.hi

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def scaled(self, c: float) -> "Bracket":
        if c < 0:
            raise InvariantError("bracket scale must be nonnegative")
        return Bracket(self.lo * c, self.hi * c)

    def shifted(self, t: float) -> "Bracket":
        return Bracket(self.lo + t, self.hi + t)


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
    U = start + 1, between I and I + (log U)**beta U**(-s), where
    I = Gamma(beta+1, (s-1) log U) / (s-1)**(beta+1) (`_upper_gamma`).  Where
    a power in I or in (log U)**beta U**(-s) leaves the double range on the
    way, both are formed by `_power_product` instead; where I or that term
    itself exceeds the double range it raises OverflowError.
    """
    s = alpha + shift_power + (1.0 if harmonic_weight else 0.0)
    if s <= 1.0:
        raise DivergentTailError(
            f"tail exponent {s} <= 1 (alpha={alpha}, shift={shift_power})"
        )
    if start < min_tail_start(alpha, beta, shift_power=shift_power, harmonic_weight=harmonic_weight):
        raise ValueError(f"tail start {start} below safe comparison region")
    U = start + 1
    lam = s - 1.0
    Q = _upper_gamma(beta + 1.0, lam * math.log(U))
    try:
        I = Q / lam ** (beta + 1.0)
        phi = math.log(U) ** beta * float(U) ** (-s)
    except (OverflowError, ZeroDivisionError):  # a power leaves the double range on the way
        I = _power_product(Q, (lam, -(beta + 1.0)))
        phi = _power_product(1.0, (math.log(U), beta), (float(U), -s))
    if not (math.isfinite(I) and math.isfinite(phi)):
        raise OverflowError(f"tail integral of (alpha={alpha}, beta={beta}) exceeds the double range")
    fac = (math.log(start + 2) / math.log(start + 1)) ** beta
    if harmonic_weight:
        fac *= (start + 1) / start
    return Bracket(weight * I, weight * fac * (I + phi))


# Gamma(a) is read as beyond the double range from this a on (Cephes' MAXGAM; Gamma
# rounds to inf from the next double up)
_GAMMA_OVERFLOW = 171.6243769563027


def _upper_gamma(a: float, x: float) -> float:
    """Gamma(a, x), the integral of t**(a-1) e**-t over t > x, for a >= 1 and
    x > 0; inf exactly where a >= _GAMMA_OVERFLOW, and finite everywhere else.

    With a = a0 + n, a0 in (0, 1] and n whole, Gamma(a0, x) is e**-x at
    a0 = 1, Legendre's continued fraction (modified Lentz) for x > a0 + 1,
    and Gamma(a0) - gamma(a0, x) by the series of gamma otherwise.  n steps of
    Gamma(b+1, x) = b Gamma(b, x) + x**b e**-x carry it to a: every term is
    positive, so nothing cancels.  From x >= a - 1 the steps run on
    Gamma(b, x) / (x**(b-1) e**-x), which stays at most a, and the
    factor x**(a-1) e**-x is applied once at the end, so that no step leaves
    the double range where Gamma(a, x) itself lies inside it.
    """
    if a >= _GAMMA_OVERFLOW:
        return math.inf
    if x >= 4096.0:  # Gamma(a, x) < x**a e**-x < e**-2600: below the least double
        return 0.0
    n = math.ceil(a) - 1
    a0 = a - n  # exact, so every a0 + k below is exact too
    scaled = x >= a - 1.0
    if a0 == 1.0:
        g = 1.0 if scaled else math.exp(-x)
    elif x > a0 + 1.0:
        h = _legendre_fraction(a0, x)  # Gamma(a0, x) = x**a0 e**-x h
        g = x * h if scaled else _power_exp(x, a0) * h
    else:
        term = total = 1.0 / a0  # gamma(a0, x) = x**a0 e**-x * sum_k x**k / (a0 (a0+1) ... (a0+k))
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= x / (a0 + k)
            total += term
        g = math.gamma(a0) - _power_exp(x, a0) * total
        if scaled:
            g /= _power_exp(x, a0 - 1.0)
    for k in range(n):
        b = a0 + k
        g = 1.0 + b * g / x if scaled else b * g + _power_exp(x, b)
    return _power_exp(x, a - 1.0) * g if scaled else g


def _legendre_fraction(a: float, x: float) -> float:
    """h with Gamma(a, x) = x**a e**-x h: 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))),
    by the modified Lentz method, for 0 < a < 1 < x."""
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) <= 2.0 ** -53:
            return h
    raise InvariantError(f"continued fraction of Gamma({a}, {x}) did not converge")


def _power_exp(x: float, c: float) -> float:
    """x**c e**-x for x > 0, as the m-th power of x**(c/m) e**(-x/m), m the least
    power of 2 that keeps both factors inside the normal range (m = 1 except
    at the edges of the range)."""
    m = 1
    while x > 700.0 * m or abs(c * math.log(x)) > 700.0 * m:
        m *= 2
    y = math.pow(x, c / m) * math.exp(-x / m)
    while m > 1:
        y *= y
        m //= 2
    return y


def _power_product(c: float, *powers: tuple[float, float]) -> float:
    """c times the product of b**e over the (b, e) pairs, b > 0, as c times m
    equal factors, m the least power of 2 that keeps every b**(e/m) within
    e**+-350: the partial products run monotonically from c to the result,
    so none leaves the double range where c and the result lie inside it."""
    m = 1
    while any(abs(e * math.log(b)) > 350.0 * m for b, e in powers):
        m *= 2
    f = math.prod(b ** (e / m) for b, e in powers)
    for _ in range(m):
        c *= f
    return c


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


def powerlog_profile(k, alpha: float, beta: float, scale: float):
    """scale * log(k+2)**beta / (k+1)**alpha at the indices k (float64).

    A scale of magnitude 2**512 or more is split as m * 2**e with |m| in
    [0.5, 1): the profile is formed at scale m and rescaled once, so the
    product with the log factor cannot overflow on the way.  The power-of-two
    rescale is exact, so the values are those of the direct formula wherever
    that formula stays inside the double range, and inf, unwarned, beyond.
    Below 2**512 only a log factor above 2**512 could overflow the product,
    and the direct formula is kept: it saves a pass over k.  With alpha < 16
    and beta < 64 no factor can overflow at an index below 2**53, and the
    direct formula runs unguarded; beyond, a power that overflows in both
    factors leaves inf / inf, no value at all, and raises OverflowError."""
    k = np.asarray(k, dtype=np.float64)
    m, e = (scale, 0) if abs(scale) < 2.0 ** 512 else math.frexp(scale)
    if e == 0 and alpha < 16.0 and beta < 64.0:
        return scale * np.log(k + 2.0) ** beta / (k + 1.0) ** alpha
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.ldexp(m * np.log(k + 2.0) ** beta / (k + 1.0) ** alpha, e)
    if np.isnan(v).any():
        raise OverflowError(f"power-log profile (alpha={alpha}, beta={beta}) exceeds the double range")
    return v


def profile_grows(a: float, b: float) -> bool:
    """Whether log(t+2)**b * (t+1)**(-a) is unbounded: a < 0, or a = 0 < b."""
    return a < 0.0 or (a == 0.0 and b > 0.0)


def powerlog_peak(a: float, b: float, start: int, scale: float) -> int:
    """The first integer t >= start at which |scale| log(t+2)**b (t+1)**(-a)
    is largest, for a bounded profile with b/a at most 36.

    The profile is nondecreasing then nonincreasing: its log derivative has
    the sign of g(t) = b(t+1) - a(t+2)log(t+2), which is concave with
    g(-1) = 0 and g(exp(b/a) - 2) = -b < 0, so the real peak is the root of g
    bisected on (-1, exp(b/a) - 2), and the integer peak is start or one of
    the integers flanking that root, compared at the caller's own scale.
    """
    if b <= 0.0 or b / a <= math.log(start + 2.0):
        return start
    lo, hi = -1.0, math.exp(b / a) - 2.0
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        if b * (mid + 1.0) > a * (mid + 2.0) * math.log(mid + 2.0):
            lo = mid
        else:
            hi = mid
    # the root lies in [lo, lo + 1], so the integer peak lies in [floor(lo), floor(lo) + 2]
    first = max(start, math.floor(lo))
    return max((start, first, first + 1, first + 2),
               key=lambda t: float(powerlog_profile(float(t), a, b, abs(scale))))


def ratio_profile_sup(a: float, b: float, start: int, scale: float = 1.0) -> float:
    """Certified sup over integer t >= start of scale * log(t+2)**b * (t+1)**(-a):
    infinite exactly where `profile_grows`, else the profile at
    `powerlog_peak`, or a bound on its real max where b/a exceeds 36."""
    if scale == 0.0:
        return 0.0
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if profile_grows(a, b):
        return math.inf
    if a > 0.0 and b / a > max(36.0, math.log(start + 2.0)):  # peak index beyond exact float indexing
        # (t+1)**-a at the peak: t+2 = e^{b/a}, and (t+1) >= (t+2)/2 there
        return math.exp(math.log(scale) + b * math.log(b / a) - a * (b / a)) * 2.0 ** a
    return float(powerlog_profile(float(powerlog_peak(a, b, start, scale)), a, b, scale))
