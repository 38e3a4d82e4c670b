import io
import json
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from calderon import suites
from calderon.families import (
    FAMILY_KINDS,
    POWER_LOG_GRID,
    family_rng,
    generate_family,
)
from calderon.report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CaseResult,
    RunConfig,
    VerificationReport,
    emit_report_csv,
    emit_report_json,
    emit_values_csv,
    fmt17,
    json_safe_float,
)
from calderon.sequences import FiniteSequence, PowerLogSequence
from calderon.spaces import WEAK_L1, axiom_check
from calderon.suites import (
    OPTRANGE_SUBSUITES,
    SUITE_NAMES,
    _scan_case,
    run_suite,
)

SMALL = RunConfig(seed=1, window=1 << 9, trials=12)


# ---------------------------------------------------------------------------
# report plumbing


def test_fmt17_round_trips_doubles():
    for v in (1.0 / 3.0, math.pi, 2.0 / math.pi, 1e-300, 123456.789, 0.1 + 0.2):
        assert float(fmt17(v)) == v


def test_json_safe_float():
    assert json_safe_float(math.inf) == "Infinity"
    assert json_safe_float(-math.inf) == "-Infinity"
    assert json_safe_float(math.nan) == "NaN"
    assert json_safe_float(1.5) == 1.5
    assert json_safe_float(None) is None


def test_report_counts_and_pass_fail_semantics():
    rep = VerificationReport(suite="demo", cases=[], environment={})
    rep.extend([CaseResult(name="a", status=PASS), CaseResult(name="b", status=INCONCLUSIVE, note="window too small")])
    assert rep.passed and not rep.failed
    assert rep.counts() == {"pass": 1, "fail": 0, "inconclusive": 1}
    rep.extend([CaseResult(name="c", status=FAIL, observed_constant=3.0)])
    assert rep.failed and not rep.passed
    assert rep.counts()["fail"] == 1


def test_report_extend_accepts_reports_and_iterables():
    rep = VerificationReport(suite="demo", cases=[], environment={})
    other = VerificationReport(suite="x", cases=[CaseResult(name="a", status=PASS)], environment={})
    rep.extend(other)
    rep.extend([CaseResult(name="b", status=PASS)])
    assert [c.name for c in rep.cases] == ["a", "b"]


def test_emit_report_json_deterministic_and_strict():
    rep = VerificationReport(suite="demo", cases=[], environment={"seed": 1})
    rep.extend([CaseResult(name="a", status=PASS, observed_constant=math.inf)])
    buf1, buf2 = io.StringIO(), io.StringIO()
    emit_report_json(rep, buf1)
    emit_report_json(rep, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    assert buf1.getvalue().endswith("\n")
    doc = json.loads(buf1.getvalue())
    assert doc["cases"][0]["observed_constant"] == "Infinity"
    assert doc["suite"] == "demo"


def test_emit_report_csv_shape():
    rep = VerificationReport(suite="demo", cases=[], environment={})
    rep.extend([CaseResult(name="a", status=PASS, observed_constant=0.5), CaseResult(name="b", status=FAIL)])
    buf = io.StringIO()
    emit_report_csv(rep, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "case,status,observed_constant"
    assert lines[1].startswith("a,pass,")
    assert lines[2].startswith("b,fail,")


def test_emit_values_csv_full_precision():
    buf = io.StringIO()
    emit_values_csv([0, 1], [math.pi, 1.0 / 3.0], [0.0, 1e-12], buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,value,tail_halfwidth"
    assert float(lines[1].split(",")[1]) == math.pi


def test_run_config_frozen_with_defaults():
    cfg = RunConfig()
    assert cfg.seed == 1 and cfg.window == 65536 and cfg.trials == 200
    # the pass-rule tolerances are constants of the suites, still echoed
    assert cfg.environment_echo() == {
        "seed": 1, "window": 65536, "trials": 200, "tolerance_exact": 1e-12, "tolerance_fast": 1e-9,
    }


# ---------------------------------------------------------------------------
# input families


def test_family_kinds_exposed():
    assert set(FAMILY_KINDS) == {
        "RandomSigned",
        "RandomNonnegDecreasing",
        "PowerLogGrid",
        "Spikes",
    }


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
def test_generate_family_deterministic(kind):
    a = generate_family(kind, 6, seed=42)
    b = generate_family(kind, 6, seed=42)
    assert len(a) == len(b) == 6
    for xa, xb in zip(a, b):
        if isinstance(xa, FiniteSequence):
            assert np.array_equal(xa.values, xb.values) and xa.offset == xb.offset
        else:
            assert (xa.alpha, xa.beta, xa.scale) == (xb.alpha, xb.beta, xb.scale)


def test_generate_family_seed_sensitivity():
    a = generate_family("RandomSigned", 3, seed=1)
    b = generate_family("RandomSigned", 3, seed=2)
    assert any(
        len(xa.values) != len(xb.values) or not np.array_equal(xa.values, xb.values)
        for xa, xb in zip(a, b)
    )


def test_random_nonneg_decreasing_shape():
    for x in generate_family("RandomNonnegDecreasing", 8, seed=3, max_support=20):
        assert np.all(x.values >= 0)
        assert np.all(np.diff(x.values) <= 0)
        assert len(x.values) <= 20


def test_power_log_grid_structure():
    fam = generate_family("PowerLogGrid", 10, seed=4)
    assert all(isinstance(x, PowerLogSequence) for x in fam)
    assert (fam[0].alpha, fam[0].beta, fam[0].scale) == (1.0, 0.0, 1.0)
    assert POWER_LOG_GRID[0] == (1.0, 0.0)
    # the grid cycles; the 9th entry repeats the first shape with a new scale
    assert (fam[8].alpha, fam[8].beta) == (1.0, 0.0)
    assert fam[8].scale != 1.0


def test_spikes_are_sparse():
    for x in generate_family("Spikes", 8, seed=5, max_support=32):
        assert np.count_nonzero(x.dense(0, x.end)) <= 4


def test_generate_family_validation():
    with pytest.raises(ValueError):
        generate_family("Mystery", 3, seed=1)
    with pytest.raises(ValueError):
        generate_family("RandomSigned", 0, seed=1)


def test_family_rng_streams_differ_by_name_and_extra():
    a = family_rng("alpha", 1).standard_normal(4)
    b = family_rng("beta", 1).standard_normal(4)
    c = family_rng("alpha", 1, 7).standard_normal(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, family_rng("alpha", 1).standard_normal(4))


# ---------------------------------------------------------------------------
# suites


def test_suite_names_fixed():
    assert SUITE_NAMES == ("core", "norms", "operators", "optrange", "all")
    assert OPTRANGE_SUBSUITES == ("quasitriangle", "minimality", "hilbert")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("optrange/core")


@pytest.mark.parametrize("name", ["core", "norms"])
def test_small_suites_pass(name):
    rep = run_suite(name, SMALL)
    assert rep.passed, [c for c in rep.cases if c.status != PASS]
    assert rep.suite == name
    assert rep.counts()["fail"] == 0


def test_operators_suite_passes_at_tiny_window():
    # shrinking the window must widen brackets, not break certification
    rep = run_suite("operators", RunConfig(seed=1, window=16, trials=8))
    assert rep.passed, [c for c in rep.cases if c.status != PASS]


def test_optrange_suite_small_passes():
    rep = run_suite("optrange", RunConfig(seed=1, window=1 << 9, trials=6))
    assert rep.passed, [c for c in rep.cases if c.status != PASS]


def test_suite_reports_are_deterministic():
    r1 = run_suite("norms", SMALL)
    r2 = run_suite("norms", SMALL)
    b1, b2 = io.StringIO(), io.StringIO()
    emit_report_json(r1, b1)
    emit_report_json(r2, b2)
    assert b1.getvalue() == b2.getvalue()


def test_all_suite_is_concatenation_of_parts():
    rep = run_suite("all", RunConfig(seed=1, window=1 << 9, trials=4))
    names = [c.name for c in rep.cases]
    assert rep.suite == "all"
    assert len(names) == len(set(names)), "case names must be unique"
    parts = [run_suite(n, RunConfig(seed=1, window=1 << 9, trials=4)) for n in
             ("core", "norms", "operators", "optrange")]
    assert [c.to_json_dict() for c in rep.cases] == [
        c.to_json_dict() for p in parts for c in p.cases
    ]


def test_axiom_check_runs_once_per_space_in_each_run_suite_call(monkeypatch):
    # norms and optrange both read the weak-l1 axiom check: `all` runs it
    # once, optrange alone runs it too, and no result outlives its call
    calls = []

    def counted(spec, **kw):
        calls.append(spec.label)
        return axiom_check(spec, **kw)

    monkeypatch.setattr(suites, "axiom_check", counted)
    config = RunConfig(seed=1, window=1 << 9, trials=4)
    for _ in range(2):
        run_suite("all", config)
    assert sorted(calls) == sorted(2 * [spec.label for spec in suites._AXIOM_SPACES])
    calls.clear()
    run_suite("optrange", config)
    assert calls == [WEAK_L1.label]


def test_full_verification_script_all_report_matches_run_suite(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_verification.py"
    main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(
        sys, "argv",
        [str(script), "--window", "16", "--trials", "2", "--out", str(tmp_path)],
    )
    main()
    buf = io.StringIO()
    emit_report_json(run_suite("all", RunConfig(seed=1, window=16, trials=2)), buf)
    assert (tmp_path / "all.json").read_text() == buf.getvalue()


def test_scan_case_witness_is_first_failure():
    failures = [3, 5]
    stop = _scan_case("demo", "note", 9, iter(failures))
    assert stop.status == FAIL and stop.observed_constant is None
    assert stop.witness == {"seed": 9, "case_index": 3}
    counted = _scan_case("demo", "note", 9, iter(failures), count=True)
    assert counted.observed_constant == 2.0
    assert counted.witness == {"seed": 9, "case_index": 3}
    extra = _scan_case("demo", "note", 9, iter([{"case_index": 3, "m": 2}, 5]))
    assert extra.witness == {"seed": 9, "case_index": 3, "m": 2}
    clean = _scan_case("demo", "note", 9, iter([]), count=True)
    assert clean.status == PASS and clean.witness is None and clean.observed_constant == 0.0


def test_scan_case_stops_drawing_after_first_failure():
    checked = []

    def failures():
        for i in range(8):
            checked.append(i)
            if i in (3, 5):
                yield i

    assert _scan_case("demo", "note", 1, failures()).witness["case_index"] == 3
    assert checked == [0, 1, 2, 3]
    checked.clear()
    _scan_case("demo", "note", 1, failures(), count=True)
    assert checked == list(range(8))


@pytest.mark.parametrize("name", sorted(OPTRANGE_SUBSUITES))
def test_optrange_subsuites_pass_small(name):
    rep = run_suite(f"optrange/{name}", RunConfig(seed=1, window=1 << 9, trials=4))
    assert rep.passed, [c for c in rep.cases if c.status != PASS]
    assert rep.suite == f"optrange/{name}"
