"""Reference values computed without calling into `calderon`.

Everything here uses only `math` and `numpy`, from the definitions:

    (S y)(n) = 1/(n+1) sum_{k<=n} y(k) + sum_{k>n} y(k)/k
    (H x)(n) = 1/pi sum_{k != n} x(k)/(n-k)

and the closed forms quoted in each function.  A check passes a program value
`v` against a reference bracket [lo, hi] when `v` lies in it after widening by
the program's own certified half-width and a relative slack.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)
EULER_GAMMA_UP = 0.5773  # above Euler's constant 0.57721...

# |a|_E of the harmonic profile a(n) = 1/(n+1)
HARMONIC_E_NORM = {
    "weak_l1": 1.0,
    "llog": math.pi ** 2 / 6.0,
    "lp:2": math.pi / math.sqrt(6.0),
}


# ---------------------------------------------------------------------------
# scalar closed forms


def harmonic(m: int) -> float:
    """H_m by math.fsum."""
    return math.fsum(1.0 / j for j in range(1, m + 1))


def harmonic_table(count: int) -> np.ndarray:
    """[H_1, ..., H_count] by Neumaier-compensated running sums (each entry
    within an ulp or two of math.fsum)."""
    out = np.empty(count)
    s = c = 0.0
    for j in range(1, count + 1):
        t = 1.0 / j
        u = s + t
        c += (s - u) + t if abs(s) >= t else (t - u) + s
        s = u
        out[j - 1] = s + c
    return out


def calderon_harmonic(n: int) -> float:
    """(S a)(n) for a(k) = 1/(k+1): (H_{n+1} + 1)/(n+1)."""
    return (harmonic(n + 1) + 1.0) / (n + 1.0)


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1 by Euler-Maclaurin summation from N = 32."""
    if not s > 1.0:
        raise ValueError("zeta needs s > 1")
    N = 32
    terms = [n ** -s for n in range(1, N)]
    terms += [N ** (1.0 - s) / (s - 1.0), 0.5 * N ** -s]
    rising = s  # s (s+1) ... (s+2k-2)
    fact = 2.0  # (2k)!
    for k, b in enumerate(_BERNOULLI, start=1):
        terms.append(b / fact * rising * N ** (-s - 2 * k + 1))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
    return math.fsum(terms)


def hilbert_direct(values: np.ndarray, offset: int, n: int) -> float:
    """(H x)(n) for x supported on [offset, offset + len(values))."""
    k = offset + np.arange(len(values))
    mask = k != n
    return math.fsum((values[mask] / (n - k[mask])).tolist()) / math.pi


# ---------------------------------------------------------------------------
# decreasing rearrangements and norms


def mu_finite(values) -> np.ndarray:
    """|x| sorted nonincreasing, trailing zeros dropped."""
    v = np.sort(np.abs(np.asarray(values, dtype=np.float64)))[::-1]
    nz = np.nonzero(v)[0]
    return v[: int(nz[-1]) + 1] if nz.size else v[:0]


def powerlog_values(alpha: float, beta: float, scale: float, ks: np.ndarray) -> np.ndarray:
    ks = np.asarray(ks, dtype=np.float64)
    return scale * np.log(ks + 2.0) ** beta / (ks + 1.0) ** alpha


def finite_norm(space: str, mu: np.ndarray) -> float:
    """Norm of a finitely supported sequence with rearrangement `mu`."""
    if mu.size == 0:
        return 0.0
    n = np.arange(mu.size, dtype=np.float64)
    if space == "weak_l1":
        return float(np.max((n + 1.0) * mu))
    if space == "sum":
        # |x|_inf = mu(0) <= |x|_weak, so the infimum over splits is mu(0)
        return float(mu[0])
    if space == "m1inf":
        return float(np.max(np.cumsum(mu) / np.log(n + 2.0)))
    if space == "llog":
        return math.fsum((mu / (n + 1.0)).tolist())
    if space.startswith("lp:"):
        p = float(space[3:])
        return math.fsum((mu ** p).tolist()) ** (1.0 / p)
    if space == "lorentz:log1p":
        return math.fsum((mu * np.log1p(1.0 / (n + 1.0))).tolist())
    if space.startswith("lorentz:power:"):
        t = float(space.split(":")[2])
        return math.fsum((mu * ((n + 1.0) ** t - n ** t)).tolist())
    raise ValueError(f"no finite reference for space {space!r}")


def powerlog_norm(space: str, alpha: float, scale: float = 1.0) -> tuple[float, float]:
    """Bracket [lo, hi] for the norm of scale/(n+1)^alpha, alpha >= 1.

    weak_l1 = sum = scale (attained at n = 0); lp:p = scale zeta(p alpha)^(1/p);
    llog = scale zeta(alpha + 1).  m1inf is the max of the window ratio, closed
    beyond the window by partial sums <= zeta(alpha).  The Lorentz norms sum
    2^16 terms and bracket the decreasing remainder by integrals of bounds on
    the increments.
    """
    if alpha < 1.0:
        raise ValueError("reference norms need alpha >= 1")
    c = scale
    if space in ("weak_l1", "sum"):
        return c, c
    if space.startswith("lp:"):
        p = float(space[3:])
        v = c * zeta(p * alpha) ** (1.0 / p)
        return v, v
    if space == "llog":
        v = c * zeta(alpha + 1.0)
        return v, v
    N = 1 << 16
    n = np.arange(N, dtype=np.float64)
    mu = (n + 1.0) ** -alpha
    if space == "m1inf":
        M = 4096
        best = float(np.max(np.cumsum(mu[:M]) / np.log(n[:M] + 2.0)))
        total = zeta(alpha) if alpha > 1.0 else None
        beyond = (
            total / math.log(M + 2.0)
            if total is not None
            else 1.0 + (EULER_GAMMA_UP + 1.0 / (2.0 * (M + 1))) / math.log(M + 2.0)
        )
        if beyond > best:
            raise ValueError("m1inf reference window too short")
        return c * best, c * best
    if space == "lorentz:log1p":
        head = math.fsum((mu * np.log1p(1.0 / (n + 1.0))).tolist())
        # 1/v - 1/(2 v^2) <= log(1 + 1/v) <= 1/v with v = k + 1
        lo = (N + 1.0) ** -alpha / alpha - (N + 1.0) ** (-alpha - 1.0) / (2.0 * (alpha + 1.0))
        hi = float(N) ** -alpha / alpha
        return c * (head + lo), c * (head + hi)
    if space.startswith("lorentz:power:"):
        t = float(space.split(":")[2])
        if not alpha > t:
            raise ValueError("lorentz power reference needs alpha > theta")
        head = math.fsum((mu * ((n + 1.0) ** t - n ** t)).tolist())
        # t (k+1)^(t-1) <= (k+1)^t - k^t <= t k^(t-1) <= t (k+1)^(t-1) (1 + 1/N)^(1-t)
        lo = t * (N + 1.0) ** (t - alpha) / (alpha - t)
        hi = t * (1.0 + 1.0 / N) ** (1.0 - t) * float(N) ** (t - alpha) / (alpha - t)
        return c * (head + lo), c * (head + hi)
    raise ValueError(f"no power-log reference for space {space!r}")


def c_a(mu: np.ndarray) -> float:
    """Membership functional sup mu(n)(n+1)/log(n+2) of a finite support."""
    n = np.arange(mu.size, dtype=np.float64)
    return float(np.max(mu * (n + 1.0) / np.log(n + 2.0))) if mu.size else 0.0


def c_star(mu: np.ndarray, h: np.ndarray) -> float:
    """Harmonic-witness scale sup mu(n)(n+1)/(H_{n+1}+1); h = harmonic_table."""
    n = np.arange(mu.size, dtype=np.float64)
    return float(np.max(mu * (n + 1.0) / (h[: mu.size] + 1.0))) if mu.size else 0.0


def in_weak_l1_range(alpha: float, beta: float) -> bool:
    """log(n+2)^beta/(n+1)^alpha lies in the range space over weak-l1 iff
    c_a < inf, i.e. alpha > 1, or alpha = 1 and beta <= 1."""
    return alpha > 1.0 or (alpha == 1.0 and beta <= 1.0)


def powerlog_c_a(alpha: float, beta: float, scale: float) -> float:
    """c_a of an in-range power-log profile: the sup over n of
    psi(n) = scale log(n+2)^(beta-1) (n+1)^(1-alpha).  psi decreases once
    (alpha-1) log(n+2) >= beta-1, so a window past that point holds the max."""
    a, b = alpha - 1.0, beta - 1.0
    if a == 0.0:
        return scale * LOG2 ** b  # in range means b <= 0: nonincreasing
    N = 1 << 16
    if a * math.log(N + 2.0) < b:
        raise ValueError("c_a reference window too short")
    n = np.arange(N, dtype=np.float64)
    return float(np.max(scale * np.log(n + 2.0) ** b * (n + 1.0) ** -a))


# ---------------------------------------------------------------------------
# witnesses


_EXPLICIT = 1 << 17


def _tail_integral(g, start: float) -> float:
    """integral_start^inf g(u) du for g positive, decreasing and of power-law
    decay, by Simpson's rule in t = log u."""
    t0 = math.log(start)
    t = t0 + np.linspace(0.0, 80.0, 16001)
    u = np.exp(t)
    f = g(u) * u
    h = t[1] - t[0]
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


def witness_profile(y: dict) -> tuple[np.ndarray, float]:
    """Decreasing rearrangement of a witness document on [0, _EXPLICIT) and a
    lower bound of sum_{k >= _EXPLICIT} mu_y(k)/k.

    `y` is {"kind": "finite", values} or {"kind": "power_log", alpha, beta,
    scale} or {"kind": "rearrangement", head, tail}.
    """
    kind = y["kind"]
    if kind == "finite":
        return mu_finite(y["values"]), 0.0
    if kind == "power_log":
        head, tail = np.empty(0), (y["alpha"], y["beta"], y.get("scale", 1.0))
    elif kind == "rearrangement":
        head = np.asarray(y["head"], dtype=np.float64)
        t = y["tail"]
        if t == "zero":
            return mu_finite(head), 0.0
        tail = (t["alpha"], t["beta"], t["scale"])
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    alpha, beta, scale = tail
    ks = np.arange(head.size, _EXPLICIT, dtype=np.float64)
    mu = np.concatenate([head, powerlog_values(alpha, beta, scale, ks)])
    if np.any(np.diff(mu) > 0):
        raise ValueError("witness profile is not nonincreasing on the explicit window")

    def g(u):
        return scale * np.log(u + 2.0) ** beta / (u + 1.0) ** alpha / u

    # g is decreasing and convex out here, so the trapezoid rule overestimates
    # its integral: sum_{k>=N} g(k) >= integral_N^inf g + g(N)/2
    N = float(_EXPLICIT)
    return mu, _tail_integral(g, N) + 0.5 * float(g(np.float64(N)))


def calderon_of_profile(mu_y: np.ndarray, tail_lo: float, count: int) -> np.ndarray:
    """Lower bound of (S mu_y)(n) for n < count, from the definition of S."""
    if mu_y.size < count:
        mu_y = np.concatenate([mu_y, np.zeros(count - mu_y.size)])
    n = np.arange(count, dtype=np.float64)
    head = np.cumsum(mu_y[:count]) / (n + 1.0)
    w = mu_y[1:] / np.arange(1, mu_y.size, dtype=np.float64)
    suffix = w.sum() - np.concatenate([[0.0], np.cumsum(w)])  # sum_{k>n} mu_y(k)/k
    return head + suffix[:count] + tail_lo


def domination_violation(mu_x: np.ndarray, y: dict, rel_tol: float = 1e-8):
    """First n < len(mu_x) with mu_x(n) > (S mu_y)(n) (1 + rel_tol), or None."""
    mu_y, tail_lo = witness_profile(y)
    s = calderon_of_profile(mu_y, tail_lo, mu_x.size)
    bad = np.nonzero(mu_x > s * (1.0 + rel_tol))[0]
    return int(bad[0]) if bad.size else None


def witness_norm(space: str, y: dict):
    """Bracket of |y|_E where a closed form exists, else None: finite witnesses
    in every space, power-log witnesses with beta = 0 and alpha >= 1."""
    kind = y["kind"]
    if kind == "finite" or (kind == "rearrangement" and y["tail"] == "zero"):
        mu = mu_finite(y["values"] if kind == "finite" else y["head"])
        v = finite_norm(space, mu)
        return v, v
    if kind == "power_log" and y["beta"] == 0.0 and y["alpha"] >= 1.0:
        try:
            return powerlog_norm(space, y["alpha"], abs(y.get("scale", 1.0)))
        except ValueError:
            return None
    return None


def within(value: float, lo: float, hi: float, halfwidth: float = 0.0, rel: float = 1e-12) -> bool:
    """value in [lo, hi] widened by a certified half-width and relative slack."""
    slack = halfwidth + rel * max(abs(lo), abs(hi), 1e-300)
    return lo - slack <= value <= hi + slack
