"""Sequence models, decreasing rearrangement, dilation, and weighted tail sums.

Two concrete representations cover everything the package computes with:

* finite-support sequences: an integer offset plus an explicit value block,
  over the half line (indices 0, 1, 2, ...) or the full line;
* the analytic power-log family on the half line,

      x(k) = scale * log(k+2)**beta / (k+1)**alpha,   alpha > 0, beta >= 0,

  which contains the harmonic profile (alpha=1, beta=0) and is closed under
  the tail estimates in :mod:`calderon.brackets`.

The decreasing rearrangement mu(x) lists |x(k)| in nonincreasing order.  For
the power-log family the profile rises to a peak bisected from (alpha, beta)
and then falls, so from the first index past the peak where it is at most
|x(0)| the rearrangement is the profile itself.  A Rearrangement stores the
sorted head before that index and, as its tail, the profile at |scale|; a
finite mu has the tail ZERO_TAIL, the profile at scale 0.
H_m has one formula, read at an index or an index array by `harmonic_number`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Optional, Union

import numpy as np

from .brackets import (TAIL_TOL, Bracket, InvariantError, ZERO_BRACKET, choose_tail_start, explicit_sum, powerlog_peak,
                       powerlog_profile, stored_profile)

EULER_GAMMA = 0.5772156649015328606065120900824024

HEAD_SCAN_CAP = 2 ** 26


class IndexDomain(str, Enum):
    HALF_LINE = "half_line"
    LINE = "line"


class DomainMismatchError(ValueError):
    """Operation applied to a sequence on the wrong index domain or family."""


class HeadResolutionError(ValueError):
    """Analytic head cannot be resolved within the scan cap."""


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("sequence values must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError("sequence values must be finite")
    return arr


@dataclass(frozen=True)
class FiniteSequence:
    """Finitely supported sequence: values[i] sits at index offset + i.

    Construct through :func:`finite`, which trims zero margins so the zero
    sequence has the single canonical form (offset 0, empty values).
    """

    domain: IndexDomain
    offset: int
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.domain is IndexDomain.HALF_LINE and self.offset < 0:
            raise DomainMismatchError("half-line sequence with negative support")

    @property
    def end(self) -> int:
        """One past the last support index."""
        return self.offset + len(self.values)

    @property
    def is_zero(self) -> bool:
        return len(self.values) == 0

    def value_at(self, k: int) -> float:
        if self.offset <= k < self.end:
            return float(self.values[k - self.offset])
        return 0.0

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Values on [lo, hi) as a contiguous array."""
        out = np.zeros(hi - lo, dtype=np.float64)
        a = max(lo, self.offset)
        b = min(hi, self.end)
        if a < b:
            out[a - lo : b - lo] = self.values[a - self.offset : b - self.offset]
        return out

    def head(self, n: int) -> np.ndarray:
        return self.dense(0, n)

    def l1(self) -> float:
        return float(np.sum(np.abs(self.values), dtype=np.longdouble))


@dataclass(frozen=True)
class PowerLogSequence:
    """x(k) = scale * log(k+2)**beta / (k+1)**alpha on the half line."""

    alpha: float
    beta: float
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be a finite positive real")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be a finite nonnegative real")
        if not math.isfinite(self.scale):
            raise ValueError("scale must be finite")

    @property
    def domain(self) -> IndexDomain:
        return IndexDomain.HALF_LINE

    @property
    def is_zero(self) -> bool:
        return self.scale == 0.0

    @property
    def is_harmonic(self) -> bool:
        return self.alpha == 1.0 and self.beta == 0.0

    def values_at(self, k) -> np.ndarray:
        return powerlog_profile(k, self.alpha, self.beta, self.scale)

    def value_at(self, k: int) -> float:
        return float(self.values_at(np.float64(k)))

    def head(self, n: int) -> np.ndarray:
        return self.values_at(np.arange(n))

    @cached_property
    def peak_index(self) -> int:
        """The first index at which |x| is largest; HeadResolutionError when
        e**(beta/alpha), a bound on it, exceeds HEAD_SCAN_CAP."""
        if self.beta / self.alpha > math.log(HEAD_SCAN_CAP):
            raise HeadResolutionError(
                f"power-log head peak beyond scan cap (alpha={self.alpha}, beta={self.beta})"
            )
        return powerlog_peak(self.alpha, self.beta, 0, self.scale)


Sequence = Union[FiniteSequence, PowerLogSequence]
MuLike = Union[Sequence, "Rearrangement"]  # a sequence, or a rearrangement already in hand


def finite(values, offset: int = 0, domain: IndexDomain = IndexDomain.HALF_LINE) -> FiniteSequence:
    """Finite-support sequence with zero margins trimmed to canonical form."""
    domain = IndexDomain(domain)
    arr = _as_float_array(values)
    nz = np.nonzero(arr)[0]
    if nz.size == 0:
        return FiniteSequence(domain, 0, np.empty(0, dtype=np.float64))
    first, last = int(nz[0]), int(nz[-1])
    return FiniteSequence(domain, offset + first, arr[first : last + 1].copy())


def zero(domain: IndexDomain = IndexDomain.HALF_LINE) -> FiniteSequence:
    return finite((), 0, domain)


def power_log(alpha: float, beta: float, scale: float = 1.0) -> PowerLogSequence:
    return PowerLogSequence(alpha, beta, scale)


# ---------------------------------------------------------------------------
# decreasing rearrangement


ZERO_TAIL = PowerLogSequence(1.0, 0.0, 0.0)  # the tail of a finite mu


@dataclass(frozen=True)
class Rearrangement:
    """Decreasing rearrangement: a sorted nonincreasing head plus a tail, a
    power-log profile at scale >= 0 (ZERO_TAIL for a finite mu).

    The head is valid verbatim; the tail gives mu(k) exactly for every
    k >= len(values).  A tail's shape is read only where it is not zero.
    """

    values: np.ndarray
    tail: PowerLogSequence = ZERO_TAIL

    def __post_init__(self):
        self.values.setflags(write=False)
        v = self.values
        if v.size:
            if math.isinf(v[0]):
                raise OverflowError("a rearranged value exceeds the double range")
            if v[-1] < 0:
                raise InvariantError("rearrangement values must be nonnegative")
            if (v[1:] > v[:-1]).any():
                raise InvariantError("rearrangement head must be nonincreasing")
        if self.tail.scale < 0:
            raise ValueError("rearrangement tail scale must be nonnegative")
        if not self.tail.is_zero and v.size:
            edge = float(self.tail.values_at(np.float64(len(v))))
            if math.isinf(edge):
                raise OverflowError("power-log tail value exceeds the double range")
            if edge > v[-1] * (1 + 1e-12) + 1e-300:
                raise InvariantError("rearrangement tail exceeds head edge")

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0 and self.tail.is_zero

    def read_window(self, window: int) -> int:
        """The window mu is read on: a finite mu's whole support if longer."""
        return max(window, len(self.values)) if self.tail.is_zero else window

    def head(self, n: int) -> np.ndarray:
        """Rearranged values at the indices 0, ..., n - 1: a finite mu is
        padded with zeros, an analytic one read from its profile."""
        W = len(self.values)
        if n <= W:
            return self.values[:n]
        ext = np.zeros(n - W) if self.tail.is_zero else self.tail.values_at(np.arange(W, n))
        return np.concatenate([self.values, ext])

    def value_at(self, n: int) -> float:
        if n < len(self.values):
            return float(self.values[n])
        return float(self.tail.values_at(np.float64(n)))

    def equals(self, other: "Rearrangement") -> bool:
        a, b = self.values, other.values
        n = max(len(a), len(b))
        return bool(np.array_equal(self.head(n), other.head(n))) and self.tail == other.tail


def _powerlog_settle_index(x: PowerLogSequence) -> int:
    """First index M with x(m) <= x(0) for all m >= M beyond the peak; from M
    on, the rearrangement equals the profile itself."""
    peak = x.peak_index
    if peak == 0:
        return 0
    x0 = abs(x.value_at(0))
    lo = peak + 1
    hi = lo
    while abs(x.value_at(hi)) > x0:
        hi *= 2
        if hi > HEAD_SCAN_CAP:
            raise HeadResolutionError(
                f"power-log head does not settle within cap (alpha={x.alpha}, beta={x.beta})"
            )
    while lo < hi:
        mid = (lo + hi) // 2
        if abs(x.value_at(mid)) <= x0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def decreasing_rearrangement(x: MuLike) -> Rearrangement:
    """mu(x): the values |x(k)| listed in nonincreasing order."""
    if isinstance(x, Rearrangement):
        return x
    if isinstance(x, FiniteSequence):
        vals = np.sort(np.abs(x.values))[::-1]
        nz = np.nonzero(vals)[0]
        vals = vals[: (int(nz[-1]) + 1) if nz.size else 0]
        return Rearrangement(vals.copy())
    if isinstance(x, PowerLogSequence):
        if x.is_zero:
            return Rearrangement(np.empty(0))
        settle = _powerlog_settle_index(x)
        head_len = max(settle, 8)
        head = np.sort(np.abs(x.values_at(np.arange(head_len))))[::-1]
        return Rearrangement(head.copy(), power_log(x.alpha, x.beta, abs(x.scale)))
    raise TypeError(f"not a sequence: {type(x)!r}")


# ---------------------------------------------------------------------------
# dilation and scalar algebra


def dilate(x: Union[FiniteSequence, Rearrangement], m: int):
    """sigma_m: repeat every entry m times, (sigma_m x)(n) = x(floor(n/m))."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("dilation factor must be a positive integer")
    m = int(m)
    if isinstance(x, FiniteSequence):
        if x.domain is not IndexDomain.HALF_LINE:
            raise DomainMismatchError("dilation is defined on the half line")
        if x.is_zero:
            return x
        return FiniteSequence(x.domain, x.offset * m, np.repeat(x.values, m))
    if isinstance(x, Rearrangement):
        if not x.tail.is_zero:
            raise DomainMismatchError(
                "dilation of an analytic tail is not closed in the family; materialize a window first"
            )
        return Rearrangement(np.repeat(x.values, m))
    if isinstance(x, PowerLogSequence):
        raise DomainMismatchError(
            "dilation of the power-log family is not closed in the family; materialize a window first"
        )
    raise TypeError(f"not a sequence: {type(x)!r}")


def add_scaled(x1: Sequence, a1: float, x2: Sequence, a2: float) -> Sequence:
    """a1*x1 + a2*x2 for representable combinations.

    Finite plus finite merges supports; power-log plus power-log requires the
    same (alpha, beta).  A finite perturbation of an analytic profile has no
    closed representation here: materialize first.
    """
    if isinstance(x1, FiniteSequence) and isinstance(x2, FiniteSequence):
        if x1.domain is not x2.domain:
            raise DomainMismatchError("cannot combine sequences on different index domains")
        if x1.is_zero and x2.is_zero:
            return zero(x1.domain)
        if x1.is_zero:
            return finite(a2 * x2.values, x2.offset, x2.domain)
        if x2.is_zero:
            return finite(a1 * x1.values, x1.offset, x1.domain)
        lo = min(x1.offset, x2.offset)
        hi = max(x1.end, x2.end)
        out = np.zeros(hi - lo, dtype=np.float64)
        out[x1.offset - lo : x1.end - lo] += a1 * x1.values
        out[x2.offset - lo : x2.end - lo] += a2 * x2.values
        return finite(out, lo, x1.domain)
    if isinstance(x1, PowerLogSequence) and isinstance(x2, PowerLogSequence):
        if (x1.alpha, x1.beta) != (x2.alpha, x2.beta):
            raise DomainMismatchError("power-log combination requires matching (alpha, beta)")
        return PowerLogSequence(x1.alpha, x1.beta, a1 * x1.scale + a2 * x2.scale)
    raise DomainMismatchError(
        "mixed finite/analytic combination is not representable; materialize the analytic part"
    )


def materialize(x: MuLike, n: int) -> FiniteSequence:
    """First n values of x as a finite-support sequence on the same domain."""
    if isinstance(x, FiniteSequence):
        return finite(x.dense(x.offset, min(x.end, x.offset + n)), x.offset, x.domain)
    if isinstance(x, PowerLogSequence):
        return finite(x.head(n), 0, IndexDomain.HALF_LINE)
    if isinstance(x, Rearrangement):
        return finite(x.head(n), 0, IndexDomain.HALF_LINE)
    raise TypeError(f"not a sequence: {type(x)!r}")


# ---------------------------------------------------------------------------
# series over a rearrangement, and weighted tail sums  sum_{k > n} x(k)/k


def series(mu: Rearrangement, term, first: int = 0, power: float = 1.0, tol: float = TAIL_TOL,
           **tail) -> tuple[int, float, Bracket]:
    """sum_{k >= first} term(mu(k), k) as (start, explicit, rem): explicit in
    longdouble over [first, start), stored head then profile, and rem the
    bracket beyond.  A finite mu is read on its whole support (rem is zero);
    an analytic tail is closed by the tail policy of `brackets` at target
    tol, so term(mu(k), k) must be its power-log profile to the `power`,
    times the weights in `tail`.  HeadResolutionError when that tail starts
    past HEAD_SCAN_CAP, the bound a power-log head obeys."""
    W = len(mu.values)
    head = explicit_sum(stored_profile(mu.values), first, W, term)
    t = mu.tail
    if t.is_zero:
        return max(first, W), head, ZERO_BRACKET
    start, rem = choose_tail_start(t.alpha * power, t.beta * power, max(first, W), tol, **tail)
    if start > HEAD_SCAN_CAP:
        raise HeadResolutionError(f"tail of (alpha={t.alpha}, beta={t.beta}) starts beyond the scan cap")
    gap = explicit_sum(t.values_at, max(first, W), start, term)
    return start, head + gap, rem.scaled(t.scale ** power)


def _over_k(v, ks):
    return v / ks


def weighted_tail_sum(x: MuLike, n: int) -> Bracket:
    """Certified value of sum_{k=n+1}^inf x(k)/k.

    Exact for finite supports.  A power-log x is read as an empty-head
    rearrangement at |scale| and the sign restored.  A harmonic tail
    telescopes to scale/first; every other one is closed by `series`.
    """
    if n < 0:
        raise ValueError("tail sums start at n >= 0")
    if isinstance(x, FiniteSequence):
        if x.domain is not IndexDomain.HALF_LINE:
            raise DomainMismatchError("weighted tail sums live on the half line")
        a = max(n + 1, x.offset)
        total = explicit_sum(stored_profile(x.values, x.offset), a, x.end, _over_k)
        return Bracket(total, total)
    if isinstance(x, PowerLogSequence):
        b = weighted_tail_sum(Rearrangement(np.empty(0), power_log(x.alpha, x.beta, abs(x.scale))), n)
        return b if x.scale >= 0 else Bracket(-b.hi, -b.lo)
    if not isinstance(x, Rearrangement):
        raise TypeError(f"not a sequence: {type(x)!r}")
    t = x.tail
    if t.is_zero or not t.is_harmonic:
        _, explicit, rem = series(x, _over_k, n + 1, harmonic_weight=True)
        return rem.shifted(explicit)
    # sum_{k >= first} 1/(k(k+1)) telescopes to 1/first
    W = len(x.values)
    head = explicit_sum(stored_profile(x.values), n + 1, W, _over_k)
    first = max(n + 1, W)
    return Bracket(t.scale / first, t.scale / first).shifted(head)


# ---------------------------------------------------------------------------
# harmonic numbers (exact small, asymptotic large)


@cache
def _harmonic_table() -> np.ndarray:
    """(H_0, ..., H_4096): the exact sums of the doubles 1/j rounded once,
    which is what math.fsum returns.  Each double 1/j is n/d with d a power
    of two at most 2^65, so the sums are exact integers in units of 2^-80,
    and int-to-float conversion rounds them once."""
    total, table = 0, [0.0]
    for j in range(1, 4097):
        n, d = (1.0 / j).as_integer_ratio()
        total += n * ((1 << 80) // d)
        table.append(math.ldexp(float(total), -80))
    return np.array(table)


def harmonic_number(m):
    """H_m = sum_{j=1}^m 1/j at an index (a float) or an index array (an
    array): the table up to 4096, the asymptotic expansion beyond (remainder
    below 1/(252 m**6), far under double precision there) with math.log
    taken per entry."""
    ms = np.asarray(m, dtype=np.int64)
    if np.any(ms < 0):
        raise ValueError("harmonic numbers need m >= 0")
    h = np.array(_harmonic_table()[np.minimum(ms, 4096)])  # an array also where m is 0-d
    fm = ms[ms > 4096].astype(np.float64)
    log = np.fromiter(map(math.log, fm.tolist()), np.float64, fm.size)
    h[ms > 4096] = log + EULER_GAMMA + 1.0 / (2.0 * fm) - 1.0 / (12.0 * fm ** 2) + 1.0 / (120.0 * fm ** 4)
    return h if ms.ndim else float(h)


def harmonic_numbers(count: int) -> np.ndarray:
    """Array [H_1, ..., H_count]."""
    return harmonic_number(np.arange(1, count + 1))


# ---------------------------------------------------------------------------
# JSON wire format


_FINITE_KEYS = {"domain", "kind", "offset", "values"}
_POWERLOG_KEYS = {"kind", "alpha", "beta"}
_POWERLOG_OPT = {"scale"}


def json_number(value, name: str) -> float:
    """A numeric wire field as a float; null, strings, booleans, lists and
    objects are rejected with ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_safe_float(v: Optional[float]):
    """Floats for wire payloads: inf/nan become strings so strict JSON
    consumers are not surprised; None passes through."""
    if v is None:
        return None
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    if math.isnan(v):
        return "NaN"
    return float(v)


def sequence_to_json(x: Sequence) -> dict:
    if isinstance(x, FiniteSequence):
        return {
            "domain": x.domain.value,
            "kind": "finite",
            "offset": int(x.offset),
            "values": [float(v) for v in x.values],
        }
    if isinstance(x, PowerLogSequence):
        d = {"kind": "power_log", "alpha": float(x.alpha), "beta": float(x.beta)}
        if x.scale != 1.0:
            d["scale"] = float(x.scale)
        return d
    raise TypeError(f"not a serializable sequence: {type(x)!r}")


def sequence_from_json(d: dict) -> Sequence:
    if not isinstance(d, dict):
        raise ValueError("sequence document must be a JSON object")
    kind = d.get("kind")
    if kind == "finite":
        extra = set(d) - _FINITE_KEYS
        if extra:
            raise ValueError(f"unknown fields in finite sequence: {sorted(extra)}")
        missing = _FINITE_KEYS - set(d)
        if missing:
            raise ValueError(f"missing fields in finite sequence: {sorted(missing)}")
        if not isinstance(d["offset"], int) or isinstance(d["offset"], bool):
            raise ValueError("offset must be an integer")
        if not isinstance(d["values"], list):
            raise ValueError("values must be a list of numbers")
        values = [json_number(v, "each entry of values") for v in d["values"]]
        return finite(values, d["offset"], IndexDomain(d["domain"]))
    if kind == "power_log":
        extra = set(d) - _POWERLOG_KEYS - _POWERLOG_OPT
        if extra:
            raise ValueError(f"unknown fields in power_log sequence: {sorted(extra)}")
        missing = _POWERLOG_KEYS - set(d)
        if missing:
            raise ValueError(f"missing fields in power_log sequence: {sorted(missing)}")
        return PowerLogSequence(
            json_number(d["alpha"], "alpha"),
            json_number(d["beta"], "beta"),
            json_number(d.get("scale", 1.0), "scale"),
        )
    raise ValueError(f"unknown sequence kind: {kind!r}")

