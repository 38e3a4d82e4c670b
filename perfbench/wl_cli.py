"""Workload `cli_oneshot`: a fixed script of cold `python -m calderon.cli`
invocations, one at a time, each in a fresh interpreter.

Inputs written at set-up (seeded where marked):

- pl.json: power_log(1.5, 0); harm.json: power_log(1, 0)
- fin.json: 256 standard-normal values on the half line (seeded)
- h65k.json / h4k.json: 65536 / 4096 standard-normal values on the line,
  centred on 0 (seeded)
- null.json, big.json: the two fault inputs, fixed

The two last invocations of the script fail today.  They are counted in
`failed` until the program is fixed; their correct outcome is fixed here
independently of the program.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import reference as ref
from common import BENCH_DIR, child_env, peak_rss_mb, timing_metrics
from tracer import merge

SPACES = ("weak_l1", "m1inf", "llog", "sum", "lp:2", "lorentz:log1p", "lorentz:power:0.5")
PL_ALPHA = 1.5
FIN_LEN = 256
CALDERON_WINDOW = 1024
H_FAST_LEN, H_NAIVE_LEN, H_NAIVE_WINDOW = 65536, 4096, 4096
SAMPLES = 48  # output indices re-summed directly per operator output
REL = 1e-12
OPERATOR_REL = 1e-10
HILBERT_ABS = 1e-9
TIMEOUT_S = 120
IMPORT_SAMPLES = 3
OVERFLOW_VALUES = [1e308, 1e308, 1e308]


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def setup(seed: int, workdir: str) -> dict:
    import calderon  # noqa: F401  (set-up includes the package import)

    rng = np.random.default_rng([seed, 0xC11])
    fin = rng.standard_normal(FIN_LEN)
    h65 = rng.standard_normal(H_FAST_LEN)
    h4 = rng.standard_normal(H_NAIVE_LEN)
    files = {
        "pl.json": {"kind": "power_log", "alpha": PL_ALPHA, "beta": 0.0},
        "harm.json": {"kind": "power_log", "alpha": 1.0, "beta": 0.0},
        "fin.json": {"kind": "finite", "domain": "half_line", "offset": 0, "values": fin.tolist()},
        "h65k.json": {"kind": "finite", "domain": "line", "offset": -H_FAST_LEN // 2, "values": h65.tolist()},
        "h4k.json": {"kind": "finite", "domain": "line", "offset": -H_NAIVE_LEN // 2, "values": h4.tolist()},
        "null.json": {"kind": "power_log", "alpha": None, "beta": 0},
        "big.json": {"kind": "finite", "domain": "half_line", "offset": 0, "values": OVERFLOW_VALUES},
    }
    os.makedirs(workdir, exist_ok=True)
    for name, doc in files.items():
        _write(os.path.join(workdir, name), doc)
    sample_rng = np.random.default_rng([seed, 0x5A])
    return {
        "workdir": workdir,
        "script": script(fin, h65, h4, sample_rng),
        "env": child_env(),
    }


# ---------------------------------------------------------------------------
# the script: (verb, argv, check, fault); check(rc, out, err) -> error or None.
# References are computed at first use, outside set-up.


def _json(out: str) -> dict:
    return json.loads(out)


def _value(doc) -> float:
    v = doc["value"]
    return math.inf if v == "Infinity" else float(v)


def check_norm_powerlog(space):
    bracket = functools.cache(lambda: ref.powerlog_norm(space, PL_ALPHA))

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        lo, hi = bracket()
        doc = _json(out)
        v = _value(doc)
        if not ref.within(v, lo, hi, doc["tail_halfwidth"], REL):
            return f"value {v!r} outside reference [{lo!r}, {hi!r}] +- {doc['tail_halfwidth']}"
        return None

    return check


def check_norm_finite(space, values):
    reference = functools.cache(lambda: ref.finite_norm(space, ref.mu_finite(values)))

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        r = reference()
        v = _value(_json(out))
        if not ref.within(v, r, r, 0.0, REL):
            return f"value {v!r}, reference {r!r}"
        return None

    return check


def check_calderon_harmonic(indices, rel):
    references = functools.cache(lambda: {n: ref.calderon_harmonic(n) for n in indices})

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        refs = references()
        doc = _json(out)
        if doc["offset"] != 0 or len(doc["values"]) != CALDERON_WINDOW:
            return "output window is not [0, window)"
        for n, r in refs.items():
            v, hw = doc["values"][n], doc["tail_halfwidth"][n]
            if not ref.within(v, r, r, hw, rel):
                return f"S a({n}) = {v!r}, reference (H_(n+1)+1)/(n+1) = {r!r}"
        return None

    return check


def check_hilbert(values, offset, lo, hi, indices):
    references = functools.cache(lambda: {n: ref.hilbert_direct(values, offset, n) for n in indices})

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        refs = references()
        doc = _json(out)
        if doc["offset"] != lo or len(doc["values"]) != hi - lo + 1:
            return "output window differs from the requested one"
        for n, r in refs.items():
            v, hw = doc["values"][n - lo], doc["tail_halfwidth"][n - lo]
            if abs(v - r) > hw + HILBERT_ABS * max(1.0, abs(r)):
                return f"H x({n}) = {v!r}, direct sum {r!r}"
        return None

    return check


def check_rearrange(values):
    mu = ref.mu_finite(values)

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        doc = _json(out)
        if doc["exact_beyond_window"] or not np.array_equal(np.asarray(doc["values"]), mu):
            return "rearrangement differs from |x| sorted nonincreasing"
        return None

    return check


def check_member(values):
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        ca = ref.c_a(ref.mu_finite(values))
        doc = _json(out)
        if doc["member"] is not True or not ref.within(doc["c_a"], ca, ca, 0.0, REL):
            return f"member={doc['member']} c_a={doc['c_a']!r}, reference c_a={ca!r}"
        return None

    return check


def check_fnorm(values):
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        mu = ref.mu_finite(values)
        floor = ref.c_a(mu) * ref.LOG2 / 2.0
        cap = ref.c_star(mu, ref.harmonic_table(mu.size + 1)) * ref.HARMONIC_E_NORM["weak_l1"]
        doc = _json(out)
        upper, lower, y = doc["upper"], doc["lower"], doc["witness"]["y"]
        if not floor * (1 - 1e-9) <= upper <= cap * (1 + 1e-9):
            return f"f = {upper!r} outside [c_a log2/2, c*] = [{floor!r}, {cap!r}]"
        expect = min(floor, upper)
        if not ref.within(lower, expect, expect, 0.0, 1e-9):
            return f"lower = {lower!r}, expected {expect!r}"
        bad = ref.domination_violation(mu, y)
        if bad is not None:
            return f"witness does not dominate at n={bad}"
        norm = ref.witness_norm("weak_l1", y)
        if norm is not None and not ref.within(upper, *norm, 0.0, 1e-9):
            return f"f = {upper!r} but |y|_weak = {norm}"
        return None

    return check


def check_null_field(rc, out, err):
    """Correct outcome: a usage error (exit 2) without a traceback."""
    if rc != 2 or "usage error" not in err or "Traceback" in err:
        return f"exit {rc}, stderr ends {err.strip()[-120:]!r}; expected exit 2 with a usage error"
    return None


# |x|_2 of three entries 1e308, scaled to stay finite: 1e308 sqrt(3)
OVERFLOW_NORM = 1e308 * math.sqrt(3.0)


def check_overflow(rc, out, err):
    """Correct outcome: exit 0 and the finite value 1e308 sqrt(3)."""
    if rc != 0:
        return f"exit {rc}; expected 0"
    v = _value(_json(out))
    if not ref.within(v, OVERFLOW_NORM, OVERFLOW_NORM, 0.0, REL):
        return f"value {v!r}; expected {OVERFLOW_NORM!r}"
    return None


def script(fin, h65, h4, rng) -> list:
    def idx(lo, hi):
        picks = rng.integers(lo, hi + 1, size=SAMPLES - 2).tolist()
        return sorted({lo, hi, *picks})

    steps = []
    for space in SPACES:
        steps.append(("norm_sum" if space == "sum" else "norm",
                      ["norm", "--in", "pl.json", "--space", space], check_norm_powerlog(space), False))
        steps.append(("norm", ["norm", "--in", "fin.json", "--space", space],
                      check_norm_finite(space, fin), False))
    cal_idx = idx(0, CALDERON_WINDOW - 1)
    w = str(CALDERON_WINDOW)
    steps.append(("calderon", ["calderon", "--in", "harm.json", "--window", w],
                  check_calderon_harmonic(cal_idx, REL), False))
    steps.append(("calderon", ["calderon", "--in", "harm.json", "--window", w, "--min-kernel"],
                  check_calderon_harmonic(cal_idx, OPERATOR_REL), False))
    W = 65536  # the CLI's default --window
    steps.append(("hilbert", ["hilbert", "--in", "h65k.json", "--method", "fast"],
                  check_hilbert(h65, -H_FAST_LEN // 2, -W, W, idx(-W, W)), False))
    Wn = H_NAIVE_WINDOW
    steps.append(("hilbert", ["hilbert", "--in", "h4k.json", "--method", "naive", "--window", str(Wn)],
                  check_hilbert(h4, -H_NAIVE_LEN // 2, -Wn, Wn, idx(-Wn, Wn)), False))
    steps.append(("rearrange", ["rearrange", "--in", "fin.json"], check_rearrange(fin), False))
    steps.append(("member", ["optrange", "member-weakl1", "--in", "fin.json"], check_member(fin), False))
    steps.append(("fnorm", ["optrange", "fnorm", "--in", "fin.json"], check_fnorm(fin), False))
    steps.append(("fault_null", ["norm", "--in", "null.json", "--space", "weak_l1"], check_null_field, True))
    steps.append(("fault_overflow", ["norm", "--in", "big.json", "--space", "lp:2"], check_overflow, True))
    return steps


# ---------------------------------------------------------------------------
# running


def _invoke(state, argv, traced_dump=None):
    if traced_dump is None:
        cmd = [sys.executable, "-m", "calderon.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), traced_dump, *argv]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=state["workdir"], env=state["env"], capture_output=True,
                       text=True, timeout=TIMEOUT_S)
    return time.perf_counter() - t0, p


def _round(state, traced=False):
    latencies, per_verb, errors, faults = [], {}, [], 0
    layers, outputs = {}, []
    for i, (verb, argv, check, fault) in enumerate(state["script"]):
        dump = os.path.join(state["workdir"], f"trace-{i}.json") if traced else None
        dt, p = _invoke(state, argv, dump)
        latencies.append(dt)
        per_verb.setdefault(verb, []).append(dt)
        outputs.append((p.returncode, p.stdout, p.stderr))
        err = check(p.returncode, p.stdout, p.stderr)
        if err and fault:
            faults += 1
        elif err:
            errors.append(f"{' '.join(argv)}: {err}")
        if traced:
            with open(dump, encoding="utf-8") as fh:
                merge(layers, json.load(fh))
    state["last"] = outputs
    return latencies, per_verb, errors, faults, layers


def run(state, seconds: float) -> dict:
    rounds, latencies, errors, faults = [], [], [], 0
    start = time.monotonic()
    while True:
        lat, _, err, f, _ = _round(state)
        rounds.append(sum(lat))
        latencies += lat
        errors += err
        faults += f
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    metrics = timing_metrics(latencies, rounds)
    metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    return {"attempted": len(latencies), "failed": faults + len(errors), "errors": errors,
            "metrics": metrics}


def import_seconds(state) -> float:
    """Median wall time of a fresh interpreter that imports calderon.cli."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import calderon.cli"], cwd=state["workdir"],
                       env=state["env"], check=True, timeout=TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_traced(state, tracer) -> dict:
    """One untraced round (per-verb medians) and one round with every child
    traced (layer counters).  The children install their own tracer, so
    `tracer` stays unused here."""
    lat0, verbs, err0, f0, _ = _round(state)
    lat1, _, err1, f1, layers = _round(state, traced=True)
    extra = {
        "cli.import_s": import_seconds(state),
        "cli.norm.ms": 1000.0 * statistics.median(verbs["norm"]),
        "cli.norm_sum.ms": 1000.0 * statistics.median(verbs["norm_sum"]),
        "cli.calderon.ms": 1000.0 * statistics.median(verbs["calderon"]),
        "cli.hilbert.ms": 1000.0 * statistics.median(verbs["hilbert"]),
        "cli.fnorm.ms": 1000.0 * statistics.median(verbs["fnorm"]),
    }
    errors = err0 + err1
    return {
        "attempted": len(lat0) + len(lat1),
        "failed": f0 + f1 + len(errors),
        "errors": errors,
        "untraced_s": sum(lat0),
        "traced_s": sum(lat1),
        "layers": layers,
        "extra": extra,
    }


def selftest(state) -> list:
    import selftest

    return selftest.cli(state, state["last"])
