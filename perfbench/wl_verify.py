"""Workload `verify_all`: what `calderon verify --suite all` does,

    run_suite("all", RunConfig(seed, window=65536, trials=200))
    emit_report_json(report, out)

one operation at a time.  The seed is the benchmark seed.

Checks on every report: every case passes, apart from the one case whose
verdict depends on the seed (SEED_DEPENDENT below).  Across two computations
with the same seed the report bytes are identical, and the four per-suite
reports concatenate to the `all` report.  A plain run has time for one `all`
report, so it recomputes the three short suites (core, norms, operators)
outside the timed phase and compares them with their part of the report; the
traced run computes the four suites separately and compares all of it.
"""

from __future__ import annotations

import io
import json
import time

from common import peak_rss_mb, timing_metrics

PARTS = ("core", "norms", "operators", "optrange")
SHORT_PARTS = PARTS[:3]

# `hilbert_fast_matches_naive` fails on some seeds (31337 and 99999 among
# them): the program takes the relative fast/naive deviation wherever
# |H x| > 1e-12, so an output near a zero of H x (|H x| ~ 4e-8 on seed 31337)
# turns the FFT route's absolute rounding error of ~1e-16 into a relative one
# above the 1e-9 tolerance.  A verdict that depends on the seed cannot be
# counted the same way in every run, so the case is left out of the checked
# and counted operations; its work stays in the timed report, and the report
# is still checked for byte-identity and concatenation.
SEED_DEPENDENT = frozenset({"hilbert_fast_matches_naive"})


def setup(seed: int, workdir: str) -> dict:
    from calderon import report, suites

    return {
        "suites": suites,
        "report": report,
        "config": report.RunConfig(seed=seed, window=65536, trials=200),
    }


def _emit(state, rep) -> str:
    buf = io.StringIO()
    state["report"].emit_report_json(rep, buf)
    return buf.getvalue()


def check_passed(doc: dict) -> list:
    """Names of the checked cases that did not pass."""
    return [c["name"] for c in checked_cases(doc) if c["status"] != "pass"]


def checked_cases(doc: dict) -> list:
    return [c for c in doc["cases"] if c["name"] not in SEED_DEPENDENT]


def check_identical(a: str, b: str, what: str):
    if a != b:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"{what}: report bytes differ from offset {at}"
    return None


def check_concatenation(all_doc: dict, part_docs: dict):
    """The cases of the per-suite reports, in suite order, are exactly the
    cases of the `all` report, and each part echoes the same configuration."""
    i = 0
    for name, doc in part_docs.items():
        n = len(doc["cases"])
        if doc["environment"] != all_doc["environment"]:
            return f"suite {name} echoes another configuration"
        if json.dumps(doc["cases"]) != json.dumps(all_doc["cases"][i : i + n]):
            return f"suite {name} cases differ from their part of the all report"
        i += n
    if len(part_docs) == len(PARTS) and i != len(all_doc["cases"]):
        return f"the four suites give {i} cases, the all report {len(all_doc['cases'])}"
    return None


def _verify_all(state):
    t0 = time.perf_counter()
    text = _emit(state, state["suites"].run_suite("all", state["config"]))
    return time.perf_counter() - t0, text


def _parts(state, names, timed=None) -> dict:
    """Run the named suites separately; return their reports."""
    out = {}
    for name in names:
        t0 = time.perf_counter()
        out[name] = state["suites"].run_suite(name, state["config"])
        if timed is not None:
            timed[f"suites.{name}.s"] = time.perf_counter() - t0
    return out


def _part_docs(state, reports: dict) -> dict:
    return {name: json.loads(_emit(state, rep)) for name, rep in reports.items()}


def _score(texts: list) -> tuple:
    cases = failed = 0
    errors = []
    for text in texts:
        doc = json.loads(text)
        bad = check_passed(doc)
        cases += len(checked_cases(doc))
        failed += len(bad)
        errors += [f"case {name} did not pass" for name in bad]
    return cases, failed, errors


def run(state, seconds: float) -> dict:
    times, texts = [], []
    start = time.monotonic()
    while True:
        dt, text = _verify_all(state)
        times.append(dt)
        texts.append(text)
        elapsed = time.monotonic() - start
        if elapsed * (len(times) + 1) / len(times) > seconds:
            break
    metrics = timing_metrics(times, times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    cases, failed, errors = _score(texts)
    metrics["ops_per_s"] = cases / sum(times)
    for other in texts[1:]:
        err = check_identical(texts[0], other, "two all reports of one seed")
        if err:
            errors.append(err)
    parts = _part_docs(state, _parts(state, SHORT_PARTS))
    err = check_concatenation(json.loads(texts[0]), parts)
    if err:
        errors.append(err)
    state["last"] = (texts[0], parts)
    return {"attempted": cases, "failed": failed, "errors": errors, "metrics": metrics}


def run_traced(state, tracer) -> dict:
    """Untraced: the four suites separately, timed one by one, and the `all`
    report assembled from them.  Traced: run_suite("all") and its emission."""
    timed = {}
    t0 = time.perf_counter()
    parts = _parts(state, PARTS, timed)
    assembled = state["report"].VerificationReport(
        suite="all", environment=state["config"].environment_echo()
    )
    for rep in parts.values():
        assembled.extend(rep)
    t1 = time.perf_counter()
    assembled_text = _emit(state, assembled)
    timed["report.emit_report_json.s"] = time.perf_counter() - t1
    untraced_s = time.perf_counter() - t0
    tracer.install()
    tracer.enabled = True
    try:
        traced_s, text = _verify_all(state)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    part_docs = _part_docs(state, parts)
    state["last"] = (text, part_docs)
    cases, failed, errors = _score([text, assembled_text])
    for err in (
        check_identical(assembled_text, text, "all report assembled from the four suites"),
        check_concatenation(json.loads(text), part_docs),
    ):
        if err:
            errors.append(err)
    return {
        "attempted": cases,
        "failed": failed,
        "errors": errors,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "layers": tracer.snapshot(),
        "extra": timed,
    }


def selftest(state) -> list:
    import selftest

    return selftest.verify(*state["last"])
