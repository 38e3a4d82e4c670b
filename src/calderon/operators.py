"""The discrete averaging operator S and the discrete Hilbert transform H.

S acts on half-line sequences:

    (S x)(n) = (1/(n+1)) * sum_{k<=n} x(k)  +  sum_{k>n} x(k)/k.

Two evaluation routes are kept deliberately distinct so they can cross-check
each other: `calderon` uses one prefix-sum pass plus a suffix pass over the
support of a finite x, and closes the rest of the window in closed form
(fast), and `calderon_min_kernel` evaluates the equivalent kernel form

    (S x)(n) = sum_k x(k) * min(1/k, 1/(n+1))      (k = 0 term: x(0)/(n+1))

by explicit kernel products (naive).  H acts on full-line sequences:

    (H x)(n) = (1/pi) * sum_{k != n} x(k)/(n-k),

with a direct-summation route (naive) and a zero-padded FFT convolution
route (fast).  Both read the kernel 1/(n-k) from one reciprocal vector.  The
naive route is `np.convolve` in "valid" mode: one dot product of length K
per output, holding nothing beyond its input and output.  Its bits depend on
no partition; BLAS `ddot` may split a dot product longer than 10000 terms
across threads, so only for K > 10000 can they differ between thread counts.
All extended-precision accumulation uses longdouble cumulative sums; analytic
inputs get certified per-index tail half-widths.

Beyond the operators themselves the module only measures: a Hardy ratio, the
two sides of the reflected lower bound, a weak (1,1) constant, a dilation
band.  Tolerances and pass rules live in `suites.py`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence as TySequence

import numpy as np

from .brackets import InvariantError
from .sequences import (
    FiniteSequence,
    IndexDomain,
    DomainMismatchError,
    MuLike,
    PowerLogSequence,
    Rearrangement,
    decreasing_rearrangement,
    dilate,
    materialize,
    weighted_tail_sum,
)

PI = math.pi

METHOD_NAIVE = "naive"
METHOD_FAST = "fast_convolution"

KERNEL_BLOCK = 1 << 24  # entries per row block of the dense S kernel
MIN_KERNEL_LIMIT = 1 << 30
HARDY_OUT_WINDOW = 2048
BENCH_OUT_CAP = 1 << 13


@dataclass(frozen=True)
class OperatorOutput:
    """Operator values on a contiguous index window.

    window_values[i] approximates the operator at index offset + i, with a
    certified error of at most tail_halfwidth_per_index[i] from truncating
    infinite inputs (exactly zero for finite-support inputs).
    """

    offset: int
    window_values: np.ndarray
    tail_halfwidth_per_index: np.ndarray
    evaluation_method: str

    def __post_init__(self):
        self.window_values.setflags(write=False)
        self.tail_halfwidth_per_index.setflags(write=False)
        if len(self.window_values) != len(self.tail_halfwidth_per_index):
            raise InvariantError("values and half-widths must align")
        if np.any(self.tail_halfwidth_per_index < 0):
            raise InvariantError("half-widths are nonnegative")

    def indices(self) -> np.ndarray:
        return self.offset + np.arange(len(self.window_values))

    def value_at(self, n: int) -> float:
        i = n - self.offset
        if not (0 <= i < len(self.window_values)):
            raise IndexError(f"index {n} outside output window")
        return float(self.window_values[i])


def calderon(x: MuLike, window: int) -> OperatorOutput:
    """Prefix-sum evaluation of S on [0, window).

    The sums run on [0, m) only: m = min(support end, window) (at least 1)
    for a finite x or a finite `Rearrangement`, m = window otherwise.  Past
    m, x vanishes, so S x(n) = P/(n+1) + (total - C), with P the last prefix
    sum and C the last weighted cumsum.  total is np.sum over the zero-padded
    window, as in the dense formula: numpy's pairwise tree depends on the
    length, and so the values are the dense formula's bit for bit."""
    if window < 1:
        raise ValueError("window must be positive")
    if isinstance(x, FiniteSequence):
        m = x.end
    elif isinstance(x, Rearrangement) and x.tail.is_zero:
        m = len(x.values)
    else:
        m = window
    m = min(max(m, 1), window)
    prefix = np.asarray(x.head(m), dtype=np.longdouble)  # x(k), then its prefix sums
    beyond = weighted_tail_sum(x, window - 1)  # sum_{k>=window} x(k)/k
    counts = np.arange(1, window + 1, dtype=np.longdouble)  # n + 1
    # w(k) = x(k)/k on [1, m), zero elsewhere; then the weighted suffix
    # sum_{k=n+1}^{window-1} w(k) = total - cumsum(w)(n)
    w = np.zeros(window, dtype=np.longdouble)
    np.divide(prefix[1:], counts[: m - 1], out=w[1:m])
    total = np.sum(w)
    np.cumsum(w[:m], out=w[:m])
    np.cumsum(prefix, out=prefix)
    P, C = prefix[-1], w[m - 1]
    np.subtract(total, w[:m], out=w[:m])
    w[:m] += np.divide(prefix, counts[:m], out=prefix)
    np.divide(P, counts[m:], out=w[m:])
    w[m:] += total - C
    with np.errstate(over="ignore", invalid="ignore"):  # a value above the double range reads inf
        if beyond.mid:  # no entry is -0, so adding a zero tail moves no bit
            w += beyond.mid
        values = w.astype(np.float64)
    hw = np.full(window, float(beyond.halfwidth))
    return OperatorOutput(0, values, hw, METHOD_FAST)


def calderon_min_kernel(x: MuLike, window: int) -> OperatorOutput:
    """Kernel-product evaluation of S on [0, window): independent cross-check
    of `calderon` via the explicit min(1/k, 1/(n+1)) kernel, built in row
    blocks; ValueError when the window x K kernel exceeds MIN_KERNEL_LIMIT
    entries or a single row exceeds KERNEL_BLOCK."""
    if window < 1:
        raise ValueError("window must be positive")
    K = max(x.end, 1) if isinstance(x, FiniteSequence) else max(4 * window, 4096)
    if window * K > MIN_KERNEL_LIMIT or K > KERNEL_BLOCK:
        raise ValueError(f"min-kernel of {window} x {K} entries exceeds the size limit 2^30 (2^24 per row)")
    # a finite x ends by K, so its window carries no beyond-K tail
    dense, beyond = x.head(K), weighted_tail_sum(x, K - 1)
    ks = np.arange(K, dtype=np.float64)
    values = np.empty(window, dtype=np.float64)
    block = KERNEL_BLOCK // K
    with np.errstate(over="ignore", invalid="ignore"):  # a value above the double range reads inf
        for b0 in range(0, window, block):
            ns = np.arange(b0, min(b0 + block, window), dtype=np.float64)
            values[b0 : b0 + len(ns)] = kernel_values(ns[:, None], ks) @ dense
        values += beyond.mid
    hw = np.full(window, float(beyond.halfwidth))
    return OperatorOutput(0, values, hw, METHOD_NAIVE)


def kernel_values(n, ks: np.ndarray) -> np.ndarray:
    """The S kernel at row n: min(1/k, 1/(n+1)), with the k = 0 limit 1/(n+1).
    n may be a column of rows, giving one kernel row per entry."""
    ks = np.asarray(ks, dtype=np.float64)
    with np.errstate(divide="ignore"):
        invk = np.where(ks > 0, 1.0 / np.maximum(ks, 1e-300), np.inf)
    return np.minimum(invk, 1.0 / (n + 1.0))


# ---------------------------------------------------------------------------
# Hilbert transform


def _hilbert_kernel(K: int, s0: int, out_lo: int, out_hi: int) -> np.ndarray:
    """g(m) = 1/m, g(0) = 0, for m = n - k over n in [out_lo, out_hi] and k in
    [s0, s0 + K): entry j holds m = out_lo - (s0 + K - 1) + j."""
    ms = np.arange(out_lo - (s0 + K - 1), out_hi - s0 + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        g = 1.0 / ms
    g[ms == 0.0] = 0.0
    return g


def _hilbert_finite_naive(vals: np.ndarray, s0: int, out_lo: int, out_hi: int) -> np.ndarray:
    # output i is the dot product of vals with the window g[i : i + K] reversed
    return np.convolve(_hilbert_kernel(len(vals), s0, out_lo, out_hi), vals, mode="valid") / PI


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n >= 1: a length the real FFT factors fully."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())  # least p35 * 2^a >= n
            p35 *= 3
        p5 *= 5
    return best


def _hilbert_finite_fast(vals: np.ndarray, s0: int, out_lo: int, out_hi: int) -> np.ndarray:
    K = len(vals)
    g = _hilbert_kernel(K, s0, out_lo, out_hi)
    if K == 1:
        conv = vals[0] * g
    else:
        # zero-padded real-FFT linear convolution at the next fast length
        n = K + len(g) - 1
        nfft = _fast_len(n)
        conv = np.fft.irfft(np.fft.rfft(vals, nfft) * np.fft.rfft(g, nfft), nfft)[:n]
    # full convolution index j holds output index out_lo - (K - 1) + j
    return conv[K - 1 : K + out_hi - out_lo] / PI


def hilbert(
    x: MuLike,
    out_lo: int,
    out_hi: int,
    method: str = METHOD_FAST,
    analytic_window: int = 1 << 16,
) -> OperatorOutput:
    """(H x)(n) for n in [out_lo, out_hi] (inclusive).

    Finite supports are summed exactly (naive) or via zero-padded FFT linear
    convolution (fast).  Both routes transform x / 2**e, e the exponent of
    max |x|, and rescale once: H is linear and the rescale exact, so no
    partial sum overflows, and a value above the double range reads inf.
    Analytic half-line inputs are truncated at analytic_window and every
    output index carries the certified truncation half-width
    (2/pi) * sum_{k>=W} x(k)/k.
    """
    if out_lo > out_hi:
        raise ValueError("output window is empty")
    if method == "fast":
        method = METHOD_FAST
    if method not in (METHOD_NAIVE, METHOD_FAST):
        raise ValueError(f"unknown evaluation method: {method!r}")
    hw_uniform = 0.0
    if isinstance(x, (PowerLogSequence, Rearrangement)):
        W = analytic_window
        if 2 * max(abs(out_lo), abs(out_hi)) >= W:
            raise ValueError(
                "analytic truncation window must be at least twice the output range"
            )
        tail = weighted_tail_sum(x, W - 1)
        hw_uniform = 2.0 / PI * max(abs(tail.lo), abs(tail.hi))  # either sign of scale
        x = materialize(x, W)
        x = FiniteSequence(IndexDomain.LINE, x.offset, x.values)
    if not isinstance(x, FiniteSequence):
        raise TypeError(f"not a sequence: {type(x)!r}")
    n_out = out_hi - out_lo + 1
    if x.is_zero:
        return OperatorOutput(
            out_lo, np.zeros(n_out), np.zeros(n_out), method
        )
    conv_len = n_out + len(x.values)
    if conv_len > (1 << 27):
        raise ValueError(f"convolution length {conv_len} exceeds the size limit 2^27")
    e = math.frexp(float(np.max(np.abs(x.values))))[1]
    route = _hilbert_finite_naive if method == METHOD_NAIVE else _hilbert_finite_fast
    with np.errstate(over="ignore"):
        vals = np.ldexp(route(np.ldexp(x.values, -e), x.offset, out_lo, out_hi), e)
    hw = np.full(n_out, hw_uniform)
    return OperatorOutput(out_lo, vals, hw, method)


def hilbert_symmetric(x: MuLike, halfwidth: int, method: str = METHOD_FAST) -> OperatorOutput:
    """H on the symmetric window [-halfwidth, halfwidth]."""
    return hilbert(x, -halfwidth, halfwidth, method)


# ---------------------------------------------------------------------------
# measurements (single-input or one family; suites.py turns them into cases)


def reflected_lower_pair(x: FiniteSequence, n: int, method: str) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of (1/(2 pi)) (S x)(m) <= |(H x)(-m)| for m = 1..n,
    index i holding m = i + 1, for nonnegative nonincreasing half-line x.
    m = 0 is excluded: the comparison chain needs m + k >= 1 and the
    transform skips k = m there."""
    if not isinstance(x, FiniteSequence) or x.domain is not IndexDomain.HALF_LINE:
        raise DomainMismatchError("lower bound needs a finite half-line sequence")
    if x.offset != 0 or np.any(x.values < 0) or np.any(np.diff(x.values) > 0):
        raise ValueError("lower bound needs nonnegative nonincreasing values from index 0")
    sx = calderon(x, n + 1).window_values[1:]
    h = hilbert(FiniteSequence(IndexDomain.LINE, x.offset, x.values), -n, -1, method)
    return sx / (2.0 * PI), np.abs(h.window_values[::-1])


@dataclass(frozen=True)
class Weak11Estimate:
    constant: float
    constant_doubled: float
    window: int

    @property
    def relative_change(self) -> float:
        if self.constant == 0.0:
            return 0.0
        return abs(self.constant_doubled - self.constant) / self.constant


def estimate_weak11_constant(
    family: TySequence[FiniteSequence], window: int = 1 << 12
) -> Weak11Estimate:
    """sup over the family of |H x|_weak(symmetric window) / |x|_1, at the
    window and at its double (stability diagnostic)."""
    from .spaces import weak_l1_quasinorm
    from .sequences import finite

    sups = []
    for W in (window, 2 * window):
        worst = 0.0
        for x in family:
            l1 = x.l1()
            if l1 == 0.0:
                continue
            xl = FiniteSequence(IndexDomain.LINE, x.offset, x.values)
            h = hilbert_symmetric(xl, W, METHOD_FAST)
            wnorm = weak_l1_quasinorm(finite(h.window_values, h.offset, IndexDomain.LINE)).value
            worst = max(worst, wnorm / l1)
        sups.append(worst)
    return Weak11Estimate(sups[0], sups[1], window)


def hardy_ratio(p: float, family: TySequence[FiniteSequence]) -> float:
    """Empirical sup of |S x|_p / |x|_p over the family, with |S x|_p read on
    [0, HARDY_OUT_WINDOW).  S is bounded on lp only for p > 1."""
    from .spaces import lp_norm

    if not p > 1:
        raise ValueError("S is bounded on lp only for p > 1")
    worst = 0.0
    for x in family:
        denom = lp_norm(x, p).value
        if denom == 0.0:
            continue
        sx = calderon(x, HARDY_OUT_WINDOW)
        a = np.abs(sx.window_values.astype(np.longdouble))
        # a^1.5 as a * sqrt(a): longdouble ** 1.5 runs powl, about 30x slower
        num = float(np.sum(a * np.sqrt(a) if p == 1.5 else a ** p)) ** (1.0 / p)
        worst = max(worst, num / denom)
    return worst


def fast_naive_agreement(x: FiniteSequence, halfwidth: int) -> float:
    """Normwise deviation max|naive - fast| / max|naive| on the symmetric
    window (0 when the naive output vanishes).  The FFT route's rounding error
    is bounded normwise, so a pointwise ratio would blow up near zeros of H x."""
    a = hilbert_symmetric(x, halfwidth, METHOD_NAIVE).window_values
    b = hilbert_symmetric(x, halfwidth, METHOD_FAST).window_values
    scale = float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - b))) / scale if scale > 0 else 0.0


@dataclass(frozen=True)
class BenchRow:
    size: int
    naive_seconds: float
    fast_seconds: float
    max_relative_deviation: float

    @property
    def speedup(self) -> float:
        return self.naive_seconds / self.fast_seconds if self.fast_seconds > 0 else math.inf


def bench_hilbert(sizes: TySequence[int], seed: int = 1) -> list[BenchRow]:
    """Wall-time comparison of the two H routes on random signed inputs of the
    given support sizes, on the symmetric window [-min(size, BENCH_OUT_CAP), ...]."""
    from .families import family_rng

    rows = []
    for size in sizes:
        if size < 1:
            raise ValueError("sizes must be positive")
        rng = family_rng("bench", seed, size)
        vals = rng.standard_normal(size)
        x = FiniteSequence(IndexDomain.LINE, 0, vals)
        half = min(size, BENCH_OUT_CAP)
        t0 = time.perf_counter()
        hilbert_symmetric(x, half, METHOD_NAIVE)
        t1 = time.perf_counter()
        hilbert_symmetric(x, half, METHOD_FAST)
        t2 = time.perf_counter()
        rows.append(BenchRow(size, t1 - t0, t2 - t1, fast_naive_agreement(x, half)))
    return rows


def dilation_commutation_band(
    family: TySequence[FiniteSequence], ms: TySequence[int], window: int
) -> tuple[float, float]:
    """Measured band of (S sigma_m mu(y))(n) / (sigma_m S mu(y))(n) over the
    family, the given repetition factors, and the window."""
    lo, hi = math.inf, 0.0
    for y in family:
        mu = decreasing_rearrangement(y)
        base = calderon(mu, window).window_values
        for m in ms:
            mu_m = dilate(mu, m)
            lhs = calderon(mu_m, window).window_values
            rhs = base[np.arange(window) // m]
            mask = rhs > 0
            if not np.any(mask):
                continue
            r = lhs[mask] / rhs[mask]
            lo = min(lo, float(np.min(r)))
            hi = max(hi, float(np.max(r)))
    return lo, hi
