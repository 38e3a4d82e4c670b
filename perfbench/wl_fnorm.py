"""Workload `fnorm_mix`: a closed-loop stream of single `f_norm_upper` queries.

A round is 76 queries in seeded order:

- 32 finite supports, 8 each over weak_l1 and llog and 16 over lp:2, with
  standard-normal values scaled to max |x| = 4.  Lengths are log-uniform on
  [1, 8192) by a stratified design: the i-th of the m lengths of round r is
  2^(13 (i + u_r)/m) with u_r = ((r mod 3) + 1/2)/3, so three rounds cover
  [1, 8192) in 3m evenly spaced steps of log2 length.
- 40 power-log profiles inside the range space: each (alpha, beta) of
  IN_RANGE over each of weak_l1, llog, lp:2, lorentz:log1p and m1inf, with a
  seeded scale, log-uniform on [0.5, 2].
- 4 power-log profiles outside the weak-l1 range (OUTSIDE, in rotation), over
  weak_l1: the correct answer is the certified NoWitnessFoundError.

The make-up of a round is fixed, so that runs of different seeds measure the
same mix of sizes and spaces; the seed draws the values, the scales and the
order.  IN_RANGE keeps only profiles whose search is conclusive in every
space today.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

import reference as ref
from common import TAIL_SAMPLES, peak_rss_mb, timing_metrics

SPACES = ("weak_l1", "llog", "lp:2", "lorentz:log1p", "m1inf")
IN_RANGE = ((1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (1.25, 0.0), (1.5, 0.0), (1.5, 1.0),
            (2.0, 0.0), (2.0, 2.0))
OUTSIDE = ((0.5, 0.0), (0.75, 0.0), (0.9, 0.0), (0.75, 1.0), (1.0, 1.5), (1.0, 2.0))
FINITE_PER_SPACE = {"weak_l1": 8, "llog": 8, "lp:2": 16}
LENGTH_PERIOD = 3
OUTSIDE_PER_ROUND = 4
LOG2_MAX_LEN = 13
PEAK = 4.0  # max |x| of a finite input, about that of 8192 standard normals
MAX_ROUNDS = 16
REL = 1e-9
DIVERGES = "c_a(x) diverges"


def make_round(seed: int, r: int) -> list:
    rng = np.random.default_rng([seed, r])
    u = (r % LENGTH_PERIOD + 0.5) / LENGTH_PERIOD
    queries = []
    for space, count in FINITE_PER_SPACE.items():
        for i in range(count):
            n = int(2.0 ** (LOG2_MAX_LEN * (i + u) / count))
            z = rng.standard_normal(n)
            queries.append({"space": space, "kind": "finite", "values": PEAK * z / np.max(np.abs(z))})

    def profile(space, alpha, beta):
        scale = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        return {"space": space, "kind": "power_log", "alpha": alpha, "beta": beta, "scale": scale}

    queries += [profile(space, a, b) for space in SPACES for a, b in IN_RANGE]
    for k in range(OUTSIDE_PER_ROUND):
        queries.append(profile("weak_l1", *OUTSIDE[(OUTSIDE_PER_ROUND * r + k) % len(OUTSIDE)]))
    return [queries[i] for i in rng.permutation(len(queries))]


class Program:
    """The calderon entry points one query uses, looked up at call time so
    that a traced run sees the wrappers."""

    def __init__(self):
        import calderon
        from calderon import optimal_range, sequences, spaces

        self.or_ = optimal_range
        self.seq = sequences
        self.specs = {
            "weak_l1": spaces.WEAK_L1,
            "llog": spaces.LLOG,
            "lp:2": spaces.lp_space(2.0),
            "lorentz:log1p": spaces.SpaceSpec(kind="lorentz_phi", phi=spaces.LOG1P),
            "m1inf": spaces.M1INF,
        }
        self.window = calderon.DEFAULT_GRID.window

    def sequence(self, q):
        if q["kind"] == "finite":
            return self.seq.finite(q["values"])
        return self.seq.power_log(q["alpha"], q["beta"], q["scale"])

    def query(self, q):
        """One operation: build the input and ask for f.  Returns the estimate
        or the NoWitnessFoundError raised."""
        x = self.sequence(q)
        try:
            return self.or_.f_norm_upper(x, self.specs[q["space"]])
        except self.or_.NoWitnessFoundError as e:
            return e

    def recheck(self, q, witness_y) -> bool:
        """The program's own check_domination of a witness, from scratch."""
        return self.or_.check_domination(self.sequence(q), witness_y, self.window).verified


def answer_doc(answer) -> dict:
    if isinstance(answer, Exception):
        return {"error": str(answer)}
    d = answer.to_json_dict()
    return {"upper": d["upper"], "lower": d["lower"], "y": d["witness"]["y"]}


def mu_of_query(q, window: int) -> np.ndarray:
    if q["kind"] == "finite":
        return ref.mu_finite(q["values"])
    mu = ref.powerlog_values(q["alpha"], q["beta"], q["scale"], np.arange(window))
    if np.any(np.diff(mu) > 0):
        raise ValueError("profile is not decreasing: its rearrangement differs")
    return mu


def check_answer(q, doc: dict, recheck_ok, window: int, h: np.ndarray) -> dict:
    """The checks an answer fails, by name, with their messages (empty when
    the answer is right).  `recheck_ok` is the program's own check_domination
    verdict on the witness (None if there is no witness)."""
    space = q["space"]
    inside = q["kind"] == "finite" or ref.in_weak_l1_range(q["alpha"], q["beta"])
    if "error" in doc:
        if not inside and space == "weak_l1" and DIVERGES in doc["error"]:
            return {}
        return {"membership": f"NoWitnessFoundError on an input in the range space: {doc['error']}"}
    if not inside:
        return {"membership": "an estimate for a profile outside the weak-l1 range"}
    fails = {}
    upper, lower = doc["upper"], doc["lower"]
    if not recheck_ok:
        fails["recheck"] = "check_domination rejects the returned witness"
    mu_x = mu_of_query(q, window)
    bad = ref.domination_violation(mu_x[:window], doc["y"])
    if bad is not None:
        fails["domination"] = f"mu(x) > S mu(y) at n={bad} (reference S)"
    if space == "weak_l1":
        ca = ref.c_a(mu_x) if q["kind"] == "finite" else ref.powerlog_c_a(q["alpha"], q["beta"], q["scale"])
        floor = ca * ref.LOG2 / 2.0
        expect = min(floor, upper)
        if upper < floor * (1.0 - REL) or lower is None or not ref.within(lower, expect, expect, rel=REL):
            fails["lower_bound"] = f"f = {upper!r}, lower = {lower!r}; c_a log2/2 = {floor!r}"
    if q["kind"] == "finite" and space in ref.HARMONIC_E_NORM:
        cap = ref.c_star(mu_x, h) * ref.HARMONIC_E_NORM[space]
        if upper > cap * (1.0 + REL):
            fails["upper_bound"] = f"f = {upper!r} above c* |a|_E = {cap!r}"
    norm = ref.witness_norm(space, doc["y"])
    if norm is not None and not ref.within(upper, *norm, rel=REL):
        fails["witness_norm"] = f"f = {upper!r} but |y|_E = {norm}"
    return fails


def setup(seed: int, workdir: str) -> dict:
    program = Program()
    return {
        "program": program,
        "rounds": [make_round(seed, r) for r in range(MAX_ROUNDS)],
        "h": ref.harmonic_table(program.window + 1),
    }


def _round(state, queries, tracer=None):
    program, window, h = state["program"], state["program"].window, state["h"]
    latencies, errors = [], []
    clock = time.perf_counter
    for q in queries:
        t0 = clock()
        answer = program.query(q)
        latencies.append(clock() - t0)
        with tracer.paused() if tracer else contextlib.nullcontext():
            doc = answer_doc(answer)
            ok = program.recheck(q, answer.witness.y) if "error" not in doc else None
            fails = check_answer(q, doc, ok, window, h)
        if fails:
            what = q.get("alpha", len(q.get("values", ())))
            errors.append(f"{q['kind']} {q['space']} {what}: " + "; ".join(fails.values()))
    return latencies, errors


def run(state, seconds: float) -> dict:
    rounds, latencies, errors = [], [], []
    start = time.monotonic()
    for queries in state["rounds"]:
        lat, err = _round(state, queries)
        latencies += lat
        errors += err
        rounds.append(sum(lat))
        elapsed = time.monotonic() - start
        if len(latencies) >= TAIL_SAMPLES and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    metrics = timing_metrics(latencies, rounds)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"attempted": len(latencies), "failed": len(errors), "errors": errors, "metrics": metrics}


def run_traced(state, tracer) -> dict:
    queries = state["rounds"][0]
    lat0, err0 = _round(state, queries)
    tracer.install()
    tracer.enabled = True
    try:
        lat1, err1 = _round(state, queries, tracer)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    errors = err0 + err1
    return {
        "attempted": len(lat0) + len(lat1),
        "failed": len(errors),
        "errors": errors,
        "untraced_s": sum(lat0),
        "traced_s": sum(lat1),
        "layers": tracer.snapshot(),
    }


def selftest(state) -> list:
    import selftest

    return selftest.fnorm(state)
