"""Self-test of the output checks: each check must accept the program's
answer and reject a perturbed one -- a value times (1 + 1e-6), or a witness
scaled by 0.99.  It runs after the timed phase of every run, on answers the
run produced where it can, and returns the checks that failed to discriminate.
"""

from __future__ import annotations

import json

import numpy as np

UP = 1.0 + 1e-6
DOWN = 0.99


def scale_witness_doc(y: dict, c: float) -> dict:
    y = dict(y)
    if y["kind"] == "finite":
        y["values"] = [v * c for v in y["values"]]
    elif y["kind"] == "power_log":
        y["scale"] = y.get("scale", 1.0) * c
    else:
        y["head"] = [v * c for v in y["head"]]
        if y["tail"] != "zero":
            y["tail"] = dict(y["tail"], scale=y["tail"]["scale"] * c)
    return y


# ---------------------------------------------------------------------------
# fnorm_mix


def fnorm(state) -> list:
    import wl_fnorm as w
    from calderon import sequences

    program, window, h = state["program"], state["program"].window, state["h"]
    problems = []

    def answer(q):
        est = program.query(q)
        doc = w.answer_doc(est)
        ok = program.recheck(q, est.witness.y) if "error" not in doc else None
        if w.check_answer(q, doc, ok, window, h):
            problems.append(f"fnorm_mix: a right answer is rejected ({q['space']})")
        return est, doc, ok

    def expect(q, doc, ok, names, what):
        fails = w.check_answer(q, doc, ok, window, h)
        problems.extend(f"fnorm_mix: {what} passes check {n}" for n in names if n not in fails)

    def scaled_y(y, c):
        if isinstance(y, sequences.PowerLogSequence):
            return sequences.power_log(y.alpha, y.beta, y.scale * c)
        if isinstance(y, sequences.FiniteSequence):
            return sequences.finite(y.values * c)
        tail = y.tail
        if not tail.is_zero:
            tail = sequences.PowerLogTail(tail.alpha, tail.beta, tail.scale * c)
        return sequences.Rearrangement(y.values * c, tail)

    # the unit impulse over weak_l1 sits on both bracket edges: f = c_a log2/2 = c* = 1/2
    e0 = {"space": "weak_l1", "kind": "finite", "values": np.array([1.0])}
    est, doc, ok = answer(e0)
    expect(e0, dict(doc, upper=doc["upper"] * UP), ok, ["upper_bound", "witness_norm"], "f*(1+1e-6)")
    expect(e0, dict(doc, lower=doc["lower"] * UP), ok, ["lower_bound"], "lower*(1+1e-6)")
    y99 = scaled_y(est.witness.y, DOWN)
    expect(e0, dict(doc, y=scale_witness_doc(doc["y"], DOWN)), program.recheck(e0, y99),
           ["recheck", "domination"], "witness*0.99")
    # witness norms in the other spaces with a |a|_E (this input's witness is finite)
    for space in ("llog", "lp:2"):
        q = {"space": space, "kind": "finite", "values": np.linspace(1.0, 0.1, 16)}
        _, doc, ok = answer(q)
        expect(q, dict(doc, upper=doc["upper"] * UP), ok, ["witness_norm"], f"f*(1+1e-6) in {space}")
    # membership: the certified refusal outside the range, an estimate inside
    out = {"space": "weak_l1", "kind": "power_log", "alpha": 0.75, "beta": 0.0, "scale": 1.0}
    inside = dict(out, alpha=1.5)
    _, out_doc, _ = answer(out)
    _, in_doc, in_ok = answer(inside)
    expect(out, in_doc, in_ok, ["membership"], "an estimate outside the range")
    expect(inside, out_doc, None, ["membership"], "a refusal inside the range")
    expect(inside, dict(in_doc, lower=in_doc["lower"] * UP), in_ok, ["lower_bound"],
           "power-log lower*(1+1e-6)")
    return problems


# ---------------------------------------------------------------------------
# verify_all


def verify(text: str, parts: dict) -> list:
    import wl_verify as w

    problems = []
    doc = json.loads(text)
    flipped = json.loads(text)
    flipped["cases"][-1]["status"] = "fail"
    if not w.check_passed(flipped):
        problems.append("verify_all: a failed case passes the every-case check")
    k = next(i for i, c in enumerate(doc["cases"])
             if isinstance(c.get("observed_constant"), float) and c["observed_constant"] != 0.0)
    bumped = json.loads(text)
    bumped["cases"][k]["observed_constant"] *= UP
    if w.check_identical(json.dumps(doc), json.dumps(bumped), "t") is None:
        problems.append("verify_all: a constant times (1+1e-6) passes the byte-identity check")
    name = next(iter(parts))
    short = dict(parts, **{name: dict(parts[name], cases=parts[name]["cases"][:-1])})
    if w.check_concatenation(doc, short) is None:
        problems.append("verify_all: a suite missing a case passes the concatenation check")
    if w.check_passed(doc) or w.check_concatenation(doc, parts):
        problems.append("verify_all: the program's own report fails a check")
    return problems


# ---------------------------------------------------------------------------
# cli_oneshot


def _bump(out: str, key: str) -> str:
    doc = json.loads(out)
    v = doc[key]
    doc[key] = [x * UP for x in v] if isinstance(v, list) else v * UP
    return json.dumps(doc)


def cli(state, last: list) -> list:
    import wl_cli as w

    problems = []

    def rejects(check, rc, out, err, what):
        if check(rc, out, err) is None:
            problems.append(f"cli_oneshot: {what} passes its check")

    for (verb, argv, check, fault), (rc, out, err) in zip(state["script"], last):
        what = " ".join(argv)
        if fault or rc != 0:
            continue
        if verb in ("norm", "norm_sum"):
            rejects(check, rc, _bump(out, "value"), err, f"{what} value*(1+1e-6)")
        elif verb in ("calderon", "hilbert", "rearrange"):
            rejects(check, rc, _bump(out, "values"), err, f"{what} values*(1+1e-6)")
        elif verb == "member":
            rejects(check, rc, _bump(out, "c_a"), err, f"{what} c_a*(1+1e-6)")
        elif verb == "fnorm":
            rejects(check, rc, _bump(out, "lower"), err, f"{what} lower*(1+1e-6)")
            doc = json.loads(out)
            doc["witness"]["y"] = scale_witness_doc(doc["witness"]["y"], DOWN)
            rejects(check, rc, json.dumps(doc), err, f"{what} witness*0.99")
    # the fault operations: their correct outcome passes, a perturbed one fails
    right = json.dumps({"space": "lp(2)", "value": w.OVERFLOW_NORM, "tail_halfwidth": 0.0, "window": 65536})
    if w.check_overflow(0, right, "") is not None:
        problems.append("cli_oneshot: the correct overflow answer fails its check")
    rejects(w.check_overflow, 0, _bump(right, "value"), "", "overflow value*(1+1e-6)")
    if w.check_null_field(2, "", "usage error: alpha must be a number\n") is not None:
        problems.append("cli_oneshot: the correct null-field outcome fails its check")
    rejects(w.check_null_field, 1, "", "Traceback (most recent call last):\nTypeError\n",
            "a traceback on the null field")
    return problems
