import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calderon import cli, optimal_range
from calderon.brackets import InvariantError
from calderon.optimal_range import check_domination
from calderon.sequences import decreasing_rearrangement, sequence_from_json


@pytest.fixture()
def harmonic_file(tmp_path):
    p = tmp_path / "harmonic.json"
    p.write_text(json.dumps({"kind": "power_log", "alpha": 1.0, "beta": 0.0}))
    return str(p)


@pytest.fixture()
def impulse_file(tmp_path):
    p = tmp_path / "e0.json"
    p.write_text(
        json.dumps({"kind": "finite", "domain": "half_line", "offset": 0, "values": [1.0]})
    )
    return str(p)


@pytest.fixture()
def log_sq_profile_file(tmp_path):
    p = tmp_path / "logsq.json"
    p.write_text(json.dumps({"kind": "power_log", "alpha": 1.0, "beta": 2.0}))
    return str(p)


@pytest.fixture()
def big_file(tmp_path):
    p = tmp_path / "big.json"
    p.write_text(json.dumps(
        {"kind": "finite", "domain": "half_line", "offset": 0, "values": [1e308] * 3}
    ))
    return str(p)


@pytest.fixture()
def signed_file(tmp_path):
    p = tmp_path / "signed.json"
    p.write_text(
        json.dumps(
            {"kind": "finite", "domain": "half_line", "offset": 0,
             "values": [-3.0, 1.0, 2.0, -0.5]}
        )
    )
    return str(p)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# operator verbs


def test_rearrange_sorts_absolute_values(capsys, signed_file):
    code, doc = run_json(capsys, ["rearrange", "--in", signed_file])
    assert code == 0
    assert doc["values"] == [3.0, 2.0, 1.0, 0.5]
    assert doc["exact_beyond_window"] is False


def test_rearrange_analytic_head(capsys, harmonic_file):
    code, doc = run_json(capsys, ["rearrange", "--in", harmonic_file, "--window", "5"])
    assert code == 0
    assert doc["values"][:3] == [1.0, 0.5, 1.0 / 3.0]
    assert doc["exact_beyond_window"] is True


def test_rearrange_csv(capsys, signed_file):
    code = cli.main(["rearrange", "--in", signed_file, "--format", "csv"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "index,value,tail_halfwidth"
    assert out[1].split(",")[1] == "3"


def test_global_flags_accepted_before_and_after_subcommand(capsys, signed_file):
    code1 = cli.main(["--format", "csv", "rearrange", "--in", signed_file])
    out1 = capsys.readouterr().out
    code2 = cli.main(["rearrange", "--in", signed_file, "--format", "csv"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_calderon_anchor_values(capsys, harmonic_file):
    code, doc = run_json(capsys, ["calderon", "--in", harmonic_file, "--window", "4"])
    assert code == 0
    assert doc["values"][0] == pytest.approx(2.0, abs=1e-12)
    assert doc["values"][1] == pytest.approx(1.25, abs=1e-12)
    assert len(doc["values"]) == 4
    assert doc["tail_halfwidth"][0] <= 1e-9


def test_calderon_min_kernel_route(capsys, impulse_file):
    code, a = run_json(capsys, ["calderon", "--in", impulse_file, "--window", "6"])
    code2, b = run_json(capsys, ["calderon", "--in", impulse_file, "--window", "6", "--min-kernel"])
    assert code == code2 == 0
    assert a["evaluation_method"] != b["evaluation_method"]
    for va, vb in zip(a["values"], b["values"]):
        assert va == pytest.approx(vb, rel=1e-11, abs=1e-11)


def test_min_kernel_beyond_size_limit_is_usage_error(capsys, harmonic_file):
    # the default --window 65536 would need a 65536 x 262144 kernel
    assert cli.main(["calderon", "--in", harmonic_file, "--min-kernel"]) == 2
    assert "size limit" in capsys.readouterr().err


def test_operator_window_honored_exactly(capsys, impulse_file):
    code, doc = run_json(capsys, ["calderon", "--in", impulse_file, "--window", "3"])
    assert code == 0 and len(doc["values"]) == 3
    assert cli.main(["calderon", "--in", impulse_file, "--window", "0"]) == 2


def test_hilbert_symmetric_window(capsys, impulse_file):
    code, doc = run_json(
        capsys, ["hilbert", "--in", impulse_file, "--window", "3", "--method", "naive"]
    )
    assert code == 0
    assert doc["offset"] == -3
    assert len(doc["values"]) == 7
    assert doc["values"][3] == 0.0
    assert doc["values"][4] == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_hilbert_explicit_range_and_methods(capsys, impulse_file):
    code, naive = run_json(
        capsys, ["hilbert", "--in", impulse_file, "--lo", "1", "--hi", "4", "--method", "naive"]
    )
    code2, fast = run_json(
        capsys, ["hilbert", "--in", impulse_file, "--lo", "1", "--hi", "4", "--method", "fast"]
    )
    assert code == code2 == 0
    assert naive["offset"] == 1 and len(naive["values"]) == 4
    assert naive["evaluation_method"] == "naive"
    assert fast["evaluation_method"] == "fast_convolution"
    for va, vb in zip(naive["values"], fast["values"]):
        assert va == pytest.approx(vb, rel=1e-9, abs=1e-12)


def test_hilbert_partial_range_is_usage_error(capsys, impulse_file):
    assert cli.main(["hilbert", "--in", impulse_file, "--lo", "1"]) == 2


# ---------------------------------------------------------------------------
# norms


def test_norm_shorthand_spaces(capsys, impulse_file):
    code, doc = run_json(capsys, ["norm", "--in", impulse_file, "--space", "weak_l1"])
    assert code == 0
    assert doc["value"] == 1.0
    code, doc = run_json(capsys, ["norm", "--in", impulse_file, "--space", "lp:2"])
    assert code == 0 and doc["value"] == 1.0
    code, doc = run_json(capsys, ["norm", "--in", impulse_file, "--space", "lorentz:log1p"])
    assert code == 0 and doc["value"] == pytest.approx(math.log(2.0), rel=1e-15)
    code, doc = run_json(capsys, ["norm", "--in", impulse_file, "--space", "lorentz:power:0.5"])
    assert code == 0 and doc["value"] == 1.0


def test_norm_lp_of_values_near_the_largest_double(capsys, big_file):
    code, doc = run_json(capsys, ["norm", "--in", big_file, "--space", "lp:2"])
    assert code == 0
    assert doc["value"] == pytest.approx(1e308 * math.sqrt(3.0), rel=1e-15)


@pytest.mark.parametrize(
    "argv",
    [["norm", "--space", "m1inf"], ["optrange", "member-weakl1"], ["norm", "--space", "weak_l1"]],
)
def test_finite_value_beyond_the_double_range_exits_one(capsys, big_file, argv):
    # |x|_m1inf = c_a = 3e308/log 4 and |x|_weak = 3e308 are finite but not
    # doubles; "Infinity" would claim divergence
    code = cli.main(argv + ["--in", big_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "exceeds the double range" in captured.err and "Traceback" not in captured.err


def test_llog_norm_of_a_profile_with_an_overflowing_tail_power(capsys, tmp_path):
    # the tail integral divides by 99**171, beyond the double range, on the
    # way to a finite bracket: certified, not refused
    import mpmath

    p = tmp_path / "pl.json"
    p.write_text(json.dumps({"kind": "power_log", "alpha": 100.0, "beta": 170.0}))
    code, doc = run_json(capsys, ["norm", "--in", str(p), "--space", "llog"])
    with mpmath.workdps(30):
        mu = sorted((mpmath.log(k + 2) ** 170 / mpmath.mpf(k + 1) ** 100 for k in range(400)), reverse=True)
        true = float(mpmath.fsum(v / (n + 1) for n, v in enumerate(mu)))  # the rest is below 1e-100
    assert code == 0
    assert abs(doc["value"] - true) <= doc["tail_halfwidth"] + 1e-13 * true


NEAR_MAX_UPPER = {
    "llog": 1.6986551871026354e+308,
    "m1inf": 1.4321360122635143e+308,
    "lp:2": 1.3286640072373074e+308,
    "lorentz:log1p": 1.3039757928850752e+308,
    "weak_l1": 1.0588235294117649e+308,  # c* = 3e308/(H_3 + 1), the harmonic witness
}


@pytest.mark.parametrize("space", sorted(NEAR_MAX_UPPER))
def test_fnorm_of_values_near_the_largest_double_certifies_a_power_log_witness(capsys, big_file, space):
    # the power-log witnesses of [1e308]*3 are priced as scale times their unit
    # norm; the finite truncations, whose norms or scales overflow, are skipped
    code, doc = run_json(capsys, ["optrange", "fnorm", "--space", space, "--in", big_file])
    assert code == 0
    assert doc["upper"] == NEAR_MAX_UPPER[space]
    assert doc["witness"]["y"]["kind"] == "power_log"
    assert doc["witness"]["window_verified"] and doc["witness"]["tail_ok"]
    if space == "weak_l1":
        # the floor c_a log 2 / 2 = (3e308/log 4) log 2 / 2 is a double though c_a is not
        assert doc["lower"] == 7.5e307
    if space == "lorentz:log1p":
        assert doc["upper"] < 1e308 * math.log(4.0)  # the finite witness mu(x)


def _run_with_peak(argv: list) -> tuple:
    """Exit code, stdout and peak resident set in KiB of cli.main(argv) in a
    fresh process.  The child reads the peak of its own address space, VmHWM:
    ru_maxrss keeps the forking process's peak across exec."""
    child = (
        "import sys\n"
        "from calderon import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')][0].split()[1]\n"
        "print(code, hwm, file=sys.stderr)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", child] + argv, capture_output=True, text=True,
                          env=env, timeout=300)
    code, peak_kb = (int(v) for v in done.stderr.split()[-2:])
    return code, done.stdout, peak_kb


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_fnorm_lp2_of_a_moderate_input_keeps_memory_bounded(tmp_path):
    # the re-check of the winning power-log witness, at scale 6.8e7, chooses
    # its tail start behind S on the unit-scale profile, far below the cap;
    # the bound guards the memory of the whole call
    p = tmp_path / "moderate.json"
    p.write_text(json.dumps(
        {"kind": "finite", "domain": "half_line", "offset": 0, "values": [1e8, 5e7, 3.3e7]}
    ))
    code, out, peak_kb = _run_with_peak(["optrange", "fnorm", "--space", "lp:2", "--in", str(p)])
    assert code == 0 and json.loads(out)["witness"]["window_verified"] is True
    assert peak_kb < 300 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_norm_lp2_of_a_slowly_decaying_profile_keeps_memory_bounded(tmp_path):
    # squares decaying like n^-1.02 sum out to the 2^24-term cap at scale 1:
    # in blocks, not all at once (about 700 MB)
    p = tmp_path / "slow.json"
    p.write_text(json.dumps({"kind": "power_log", "alpha": 0.51, "beta": 0.0}))
    code, out, peak_kb = _run_with_peak(["norm", "--space", "lp:2", "--in", str(p)])
    assert code == 0 and json.loads(out)["window"] == 1 << 24
    assert peak_kb < 300 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize(
    "beta, space, code, value",
    [(16.0, "lp:2", 1, None), (5.0, "weak_l1", 0, "Infinity"), (5.0, "m1inf", 0, "Infinity"),
     (5.5, "sum", 0, 48.43665593174491)],
    ids=["lp2_peak_at_e16", "weak_l1_divergent", "m1inf_divergent", "sum_late_settle"],
)
def test_power_log_shape_is_read_before_any_head_is_built(tmp_path, beta, space, code, value):
    # power_log(1, 16) peaks near index e^16 and never settles under the cap;
    # power_log(1, 5) settles near 5.7e6 yet diverges in both sups, and
    # power_log(1, 5.5) settles near 5.8e7, where `sum` reads its peak: each
    # answer comes from (alpha, beta) alone, without an index array of that length
    p = tmp_path / "late.json"
    p.write_text(json.dumps({"kind": "power_log", "alpha": 1.0, "beta": beta}))
    got, out, peak_kb = _run_with_peak(["norm", "--space", space, "--in", str(p)])
    assert got == code
    if value is not None:
        assert json.loads(out)["value"] == value
    assert peak_kb < 100 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_naive_hilbert_holds_one_row_block(tmp_path):
    # 8193 outputs of a 4096-entry support: two 4096 x 4096 row blocks of
    # 128 MiB each, only one of which may be in memory at a time
    p = tmp_path / "h4k.json"
    vals = np.random.default_rng(4).standard_normal(4096)
    p.write_text(json.dumps({"kind": "finite", "domain": "line", "offset": -2048, "values": vals.tolist()}))
    code, out, peak_kb = _run_with_peak(["hilbert", "--method", "naive", "--window", "4096", "--in", str(p)])
    assert code == 0 and len(json.loads(out)["values"]) == 8193
    assert peak_kb < 224 * 1024


def test_norm_space_file(capsys, impulse_file, tmp_path):
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps({"space": "lp", "p": 3.0}))
    code, doc = run_json(capsys, ["norm", "--in", impulse_file, "--space", str(sp)])
    assert code == 0 and doc["value"] == 1.0


def test_norm_infinite_value_in_csv(capsys, log_sq_profile_file):
    code = cli.main(["norm", "--in", log_sq_profile_file, "--space", "weak_l1", "--format", "csv"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "space,value,tail_halfwidth,window"
    assert out[1].split(",")[1] == "Infinity"


def test_norm_unknown_space_is_usage_error(capsys, impulse_file):
    assert cli.main(["norm", "--in", impulse_file, "--space", "banach"]) == 2


def test_broken_invariant_exits_one_without_traceback(capsys, monkeypatch, impulse_file):
    # a broken internal invariant is a fault of the program, not a usage error
    def broken(args):
        raise InvariantError("half-widths are nonnegative")

    monkeypatch.setitem(cli._DISPATCH, "norm", broken)
    assert cli.main(["norm", "--in", impulse_file, "--space", "llog"]) == 1
    assert capsys.readouterr().err == "internal error: half-widths are nonnegative\n"


@pytest.mark.parametrize("space", ["lp:inf", "file"])
@pytest.mark.parametrize("verb", [["norm"], ["optrange", "fnorm"]], ids=["norm", "fnorm"])
def test_lp_of_infinite_exponent_is_a_usage_error(capsys, tmp_path, signed_file, harmonic_file, verb, space):
    # the sup norm is the `sum` space; lp takes a finite p only
    if space == "file":
        space = str(tmp_path / "lpinf.json")
        Path(space).write_text('{"space": "lp", "p": Infinity}')
    for infile in (signed_file, harmonic_file):
        assert cli.main(verb + ["--in", infile, "--space", space]) == 2
        assert capsys.readouterr().err == "usage error: lp space needs a finite p >= 1\n"


def test_json_arrays_hold_floats_for_integer_input(capsys, tmp_path):
    p = tmp_path / "ints.json"
    p.write_text(json.dumps({"kind": "finite", "domain": "half_line", "offset": 0, "values": [3, -1, 2]}))
    # the arrays are float64, so integers print as 3.0, never as 3
    for argv in (["rearrange"], ["calderon"], ["calderon", "--min-kernel"],
                 ["hilbert", "--method", "naive"], ["hilbert", "--method", "fast"]):
        code, doc = run_json(capsys, argv + ["--in", str(p), "--window", "4"])
        assert code == 0
        assert all(type(v) is float for v in doc["values"] + doc.get("tail_halfwidth", [])), argv


def test_norm_divergent_lp_reports_uncertifiable(capsys, harmonic_file):
    code = cli.main(["norm", "--in", harmonic_file, "--space", "lp:1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "could not certify" in err


# ---------------------------------------------------------------------------
# optrange verbs


def test_fnorm_impulse_value(capsys, impulse_file):
    code, doc = run_json(capsys, ["optrange", "fnorm", "--in", impulse_file])
    assert code == 0
    assert doc["upper"] == pytest.approx(0.5, rel=1e-12)
    assert doc["lower"] == pytest.approx(0.5, rel=1e-12)
    assert doc["witness"]["window_verified"] is True


@pytest.mark.parametrize(
    "flag, window",
    [([], 16384), (["--window", "1024"], 1024), (["--window", "4"], 16)],
    ids=["default", "1024", "floor"],
)
def test_fnorm_window_flag(capsys, impulse_file, flag, window):
    # the certificate window is --window clamped to [16, 2^14], as in optrange verify
    code, doc = run_json(capsys, ["optrange", "fnorm", "--in", impulse_file] + flag)
    assert code == 0 and doc["upper"] == pytest.approx(0.5, rel=1e-12)
    assert doc["witness"]["window"] == window


def test_fnorm_lp2_of_moderate_input_is_certified(capsys, tmp_path):
    # the winning power-log witness, at scale 6.8e7, is re-checked behind S
    # with a tail bracket chosen on its unit-scale profile
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"kind": "finite", "domain": "half_line", "offset": 0, "values": [1e8, 5e7, 3.3e7]}))
    code, doc = run_json(capsys, ["optrange", "fnorm", "--in", str(p), "--space", "lp:2"])
    assert code == 0
    assert doc["witness"]["window_verified"] is True and doc["witness"]["tail_ok"] is True


def test_fnorm_non_member_exits_one(capsys, log_sq_profile_file):
    code = cli.main(["optrange", "fnorm", "--in", log_sq_profile_file])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert "no witness exists" in doc["error"]


def test_fnorm_of_the_least_subnormal_names_the_underflowing_scale(capsys, tmp_path):
    # c* of [5e-324] is 5e-324/2, which rounds to 0: no double scales the
    # harmonic witness, and the reason says so instead of naming the tail rule
    p = tmp_path / "least.json"
    p.write_text(json.dumps({"kind": "finite", "domain": "half_line", "offset": 0, "values": [5e-324]}))
    code, doc = run_json(capsys, ["optrange", "fnorm", "--in", str(p)])
    assert code == 1
    assert doc["error"] == "no candidate witness certifies (inconclusive): ['witness scale underflows']"


def test_member_weakl1(capsys, harmonic_file, log_sq_profile_file):
    code, doc = run_json(capsys, ["optrange", "member-weakl1", "--in", harmonic_file])
    assert code == 0
    assert doc["member"] is True
    assert doc["c_a"] == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
    code, doc = run_json(capsys, ["optrange", "member-weakl1", "--in", log_sq_profile_file])
    assert code == 0
    assert doc["member"] is False and doc["c_a"] == "Infinity"


@pytest.fixture(scope="module")
def long_finite_file(tmp_path_factory):
    # 3000 normal entries, longer than the certificate window 1024
    values = np.random.default_rng(15).standard_normal(3000).tolist()
    p = tmp_path_factory.mktemp("long") / "long.json"
    p.write_text(json.dumps({"kind": "finite", "domain": "half_line", "offset": 0, "values": values}))
    return str(p)


@pytest.mark.parametrize("space", ["weak_l1", "llog", "lp:2", "lorentz:log1p", "m1inf"])
def test_fnorm_of_a_finite_input_longer_than_the_window_certifies(capsys, long_finite_file, space):
    # a finite input is certified on its whole support: the window bounds
    # analytic heads only
    code, doc = run_json(capsys, ["optrange", "fnorm", "--in", long_finite_file, "--space", space,
                                  "--window", "1024"])
    assert code == 0
    w = doc["witness"]
    assert w["window"] == 3000 and w["window_verified"] is True and w["tail_ok"] is True
    with open(long_finite_file, encoding="utf-8") as fh:
        x = sequence_from_json(json.load(fh))
    assert check_domination(x, sequence_from_json(w["y"]), 1024).verified


@pytest.fixture(scope="module")
def wire_inputs(tmp_path_factory):
    # a finite support longer than every truncation level, and an analytic
    # profile that is neither harmonic nor a generator
    d = tmp_path_factory.mktemp("wire")
    values = np.random.default_rng(19).standard_normal(5000).tolist()
    (d / "long.json").write_text(json.dumps(
        {"kind": "finite", "domain": "half_line", "offset": 0, "values": values}))
    (d / "pl.json").write_text(json.dumps({"kind": "power_log", "alpha": 2, "beta": 2, "scale": -1.3}))
    return d


@pytest.mark.parametrize("name", ["long", "pl"])
@pytest.mark.parametrize("space", ["llog", "lp:2", "lorentz:log1p", "m1inf"])
def test_fnorm_witness_reads_back_from_the_wire(capsys, wire_inputs, name, space):
    # mu(x) itself is a finite shape or the unit profile of its tail, so every
    # printed y is a wire sequence that replays the certificate
    path = str(wire_inputs / f"{name}.json")
    code, doc = run_json(capsys, ["optrange", "fnorm", "--in", path, "--space", space])
    assert code == 0
    w = doc["witness"]
    assert w["y"]["kind"] in ("finite", "power_log")
    with open(path, encoding="utf-8") as fh:
        x = sequence_from_json(json.load(fh))
    assert check_domination(x, sequence_from_json(w["y"]), w["window"]).verified


def test_fnorm_exits_one_with_a_refuted_witness_and_prints_it(capsys, monkeypatch, impulse_file):
    # the witness is printed even when the re-check refutes it, so that it can be replayed
    def refuting(x, y, window):
        cert = check_domination(x, y, window)
        return optimal_range.DominationCertificate(
            cert.x, cert.y, cert.window, False, cert.tail_argument, cert.tail_ok, 0
        )

    monkeypatch.setattr(optimal_range, "check_domination", refuting)
    code, doc = run_json(capsys, ["optrange", "fnorm", "--in", impulse_file, "--space", "llog"])
    assert code == 1
    w = doc["witness"]
    assert w["window_verified"] is False and w["first_violation"] == 0
    # replayed without the patch, the printed witness certifies
    monkeypatch.undo()
    with open(impulse_file, encoding="utf-8") as fh:
        x = sequence_from_json(json.load(fh))
    assert check_domination(x, sequence_from_json(w["y"]), w["window"]).verified


@pytest.fixture(scope="module")
def replay_inputs(tmp_path_factory):
    # a line-domain input with negative entries, a negative-scale profile
    # and the zero input
    d = tmp_path_factory.mktemp("replay")
    docs = {
        "line": {"kind": "finite", "domain": "line", "offset": -3, "values": [0.5, -2.0, 0.0, 1.25, -0.75]},
        "pl": {"kind": "power_log", "alpha": 1.5, "beta": 1, "scale": -1.3},
        "zero": {"kind": "finite", "domain": "half_line", "offset": 0, "values": [0]},
    }
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    return d


VERDICT_FIELDS = ("window", "window_verified", "tail_ok", "tail_argument", "first_violation")


@pytest.mark.parametrize("name", ["line", "pl", "zero"])
@pytest.mark.parametrize("space", ["weak_l1", "llog", "lp:2", "lorentz:log1p", "m1inf"])
def test_printed_certificate_replays_from_its_own_x_and_y(capsys, replay_inputs, name, space):
    # the printed x is mu(x) in a wire kind: reading x and y back replays the
    # verdict, with no need for the input file
    path = str(replay_inputs / f"{name}.json")
    code, doc = run_json(capsys, ["optrange", "fnorm", "--in", path, "--space", space])
    assert code == 0
    w = doc["witness"]
    mu_x = sequence_from_json(w["x"])
    again = check_domination(mu_x, sequence_from_json(w["y"]), w["window"])
    assert {k: getattr(again, k) for k in VERDICT_FIELDS} == {k: w[k] for k in VERDICT_FIELDS}
    with open(path, encoding="utf-8") as fh:
        x = sequence_from_json(json.load(fh))
    assert decreasing_rearrangement(mu_x).equals(decreasing_rearrangement(x))
    # printed as mu(x) itself, not as x: nonnegative and sorted from index 0
    assert np.array_equal(mu_x.head(8), decreasing_rearrangement(x).head(8))


@pytest.mark.parametrize(
    "bad",
    [["--space", "{dir}"], ["--space", "weak_l1", "--out", "{dir}/absent/out.json"],
     ["--space", "weak_l1", "--out", "{dir}"]],
    ids=["space_is_a_directory", "out_in_a_missing_directory", "out_is_a_directory"],
)
@pytest.mark.parametrize("verb", [["norm"], ["optrange", "fnorm"]], ids=["norm", "fnorm"])
def test_unusable_file_paths_are_usage_errors(capsys, tmp_path, impulse_file, verb, bad):
    code = cli.main(verb + ["--in", impulse_file] + [a.format(dir=tmp_path) for a in bad])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and "Traceback" not in err


WINDOW_VERBS = {
    "rearrange": ["rearrange", "--in", "IMPULSE"],
    "norm": ["norm", "--space", "llog", "--in", "IMPULSE"],
    "calderon": ["calderon", "--in", "IMPULSE"],
    "hilbert": ["hilbert", "--in", "IMPULSE"],
    "fnorm": ["optrange", "fnorm", "--in", "IMPULSE"],
    "member-weakl1": ["optrange", "member-weakl1", "--in", "IMPULSE"],
    "optrange-verify": ["optrange", "verify", "--suite", "minimality", "--trials", "1"],
    "verify": ["verify", "--suite", "core", "--trials", "1"],
}


@pytest.mark.parametrize("window", ["0", "-5"])
@pytest.mark.parametrize("verb", list(WINDOW_VERBS))
def test_window_below_one_is_a_usage_error_in_every_verb(capsys, impulse_file, verb, window):
    argv = [impulse_file if a == "IMPULSE" else a for a in WINDOW_VERBS[verb]]
    assert cli.main(argv + ["--window", window]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and "--window" in captured.err


def test_member_weakl1_reads_a_finite_input_past_the_window(capsys, tmp_path):
    # c_a of 70000 ones is 70000/log(70001), attained at the last entry
    p = tmp_path / "ones.json"
    p.write_text(json.dumps({"kind": "finite", "domain": "half_line", "offset": 0, "values": [1.0] * 70000}))
    code, doc = run_json(capsys, ["optrange", "member-weakl1", "--in", str(p)])
    assert code == 0 and doc["member"] is True
    assert doc["c_a"] == pytest.approx(70000 / math.log(70001), rel=1e-14)


@pytest.mark.parametrize("scale", [-1.0, -0.37])
@pytest.mark.parametrize("verb", [["optrange", "member-weakl1"], ["optrange", "fnorm"]])
def test_negative_scale_power_log_reads_as_its_absolute_value(capsys, tmp_path, verb, scale):
    outs = []
    for s in (scale, -scale):
        p = tmp_path / f"pl{s}.json"
        p.write_text(json.dumps({"kind": "power_log", "alpha": 1, "beta": 0, "scale": s}))
        code = cli.main(verb + ["--in", str(p)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        outs.append(captured.out)
    assert outs[0] == outs[1]


def test_hilbert_of_a_negative_scale_power_log_mirrors_its_absolute_value(capsys, tmp_path):
    docs = []
    for s in (-0.37, 0.37):
        p = tmp_path / f"pl{s}.json"
        p.write_text(json.dumps({"kind": "power_log", "alpha": 1.5, "beta": 0, "scale": s}))
        code, doc = run_json(capsys, ["hilbert", "--window", "8", "--in", str(p)])
        assert code == 0
        docs.append(doc)
    neg, pos = docs
    assert neg["tail_halfwidth"] == pos["tail_halfwidth"] and min(pos["tail_halfwidth"]) > 0
    assert neg["values"] == [-v for v in pos["values"]]


@pytest.mark.parametrize(
    "space, values, upper",
    [("lorentz:log1p", [1e308], 6.220329926520839e+307), ("m1inf", [1e307] * 3, 1.4321360122635143e+307)]
    + [(space, [1e308] * 3, upper) for space, upper in sorted(NEAR_MAX_UPPER.items())],
)
def test_fnorm_with_witnesses_scaled_near_the_double_range_prints_no_warning(tmp_path, space, values, upper):
    # power-log witnesses are scaled near 1e308: forming scale * log(k+2)**beta
    # first would overflow and warn on stderr, and so would the images and
    # ratios of the finite truncations of [1e308]*3
    p = tmp_path / "near_max.json"
    p.write_text(json.dumps({"kind": "finite", "domain": "half_line", "offset": 0, "values": values}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "calderon.cli", "optrange", "fnorm", "--space", space,
         "--in", str(p)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0
    assert "RuntimeWarning" not in done.stderr and done.stderr == ""
    doc = json.loads(done.stdout)
    assert doc["upper"] == upper and doc["witness"]["window_verified"] is True


def _run_cold(argv: list, timeout: float = 300) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-W", "default", "-m", "calderon.cli", *argv],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=timeout)


def _power_log_file(tmp_path, alpha, beta, scale) -> str:
    p = tmp_path / "edge.json"
    p.write_text(json.dumps({"kind": "power_log", "alpha": alpha, "beta": beta, "scale": scale}))
    return str(p)


@pytest.mark.parametrize(
    "alpha, beta, scale, verb",
    [(1.05, 1.0, 2.6e307, ["norm", "--space", "weak_l1"]),
     (1.001, 1.0, 1e306, ["norm", "--space", "m1inf"]),
     (1.5, 6.0, 7e307, ["norm", "--space", "weak_l1"]),
     (1.5, 6.0, 7e307, ["norm", "--space", "sum"]),
     (1.5, 6.0, 7e307, ["norm", "--space", "llog"]),
     (1.5, 6.0, 7e307, ["optrange", "member-weakl1"]),
     (1.5, 6.0, 7e307, ["optrange", "fnorm"]),
     (1.05, 2.0, 1e308, ["optrange", "fnorm"])],
    ids=["weak_l1_tail_sup", "m1inf_beyond_window", "weak_l1_inf_head", "sum_inf_peak", "llog_inf_head",
         "member_inf_head", "fnorm_inf_head", "fnorm_c_a_tail_sup"],
)
def test_convergent_power_log_beyond_the_double_range_is_not_certified(tmp_path, alpha, beta, scale, verb):
    # alpha > 1: each value is finite in fact, so inf would falsely read as
    # divergence; the value only exceeds the double range
    done = _run_cold(verb + ["--in", _power_log_file(tmp_path, alpha, beta, scale)])
    assert done.returncode == 1 and "could not certify" in done.stderr
    assert not any(word in done.stdout for word in ("Infinity", "NaN", "diverges"))
    assert "RuntimeWarning" not in done.stderr


HALF_1E308 = {"kind": "finite", "domain": "half_line", "offset": 0, "values": [1e308] * 3}
HALF_MAX = {"kind": "finite", "domain": "half_line", "offset": 0, "values": [1.7e308] * 64}
PL_NO_VALUE = {"kind": "power_log", "alpha": 1e300, "beta": 1e300}
PL_LATE_TAIL = {"kind": "power_log", "alpha": 0.5, "beta": 40.0}


@pytest.mark.parametrize(
    "doc, verb",
    [(HALF_1E308, ["calderon", "--window", "4"]),
     (HALF_1E308, ["calderon", "--window", "4", "--min-kernel"]),
     (HALF_MAX, ["hilbert", "--window", "4", "--method", "fast"]),
     (HALF_MAX, ["hilbert", "--window", "4", "--method", "naive"]),
     (PL_NO_VALUE, ["norm", "--space", "weak_l1"]),
     (PL_NO_VALUE, ["optrange", "member-weakl1"]),
     (PL_NO_VALUE, ["rearrange"]),
     (PL_LATE_TAIL, ["calderon", "--window", "16"])],
    ids=["calderon", "calderon_min_kernel", "hilbert_fast", "hilbert_naive", "weak_l1_no_value",
         "member_no_value", "rearrange_no_value", "calderon_tail_past_cap"],
)
def test_values_beyond_the_double_range_are_not_certified_before_any_output(tmp_path, doc, verb):
    # S [1e308]*3 at 0 and H [1.7e308]*64 at -1 exceed the largest double;
    # power_log(1e300, 1e300) reads inf / inf; power_log(0.5, 40)'s tail starts near 4e11
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    done = _run_cold(verb + ["--in", str(p), "--out", str(out)], timeout=60)
    assert done.returncode == 1 and done.stdout == "" and not out.exists()
    assert done.stderr.startswith("computation could not certify") and done.stderr.count("\n") == 1
    assert "Infinity" not in done.stderr and "NaN" not in done.stderr


def test_power_log_whose_power_overflows_prints_its_values_without_a_warning(tmp_path):
    done = _run_cold(["rearrange", "--window", "4", "--in", _power_log_file(tmp_path, 1e6, 1.0, 1.0)])
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["values"] == [math.log(2.0)] + [0.0] * 7


@pytest.mark.parametrize("space, value", [("llog", 1.3414872572509128e+308),
                                          ("lorentz:log1p", 9.849179985900167e+307)])
def test_summed_norm_just_below_the_largest_double_prints_its_value(tmp_path, space, value):
    # 1e308 zeta(2.5) is a double: the midpoint of its bracket must not overflow
    done = _run_cold(["norm", "--space", space, "--in", _power_log_file(tmp_path, 1.5, 0.0, 1e308)])
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["value"] == value


def test_optrange_verify_subsuite(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = cli.main(
        ["optrange", "verify", "--suite", "quasitriangle", "--trials", "4",
         "--window", "512", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "optrange/quasitriangle"
    assert doc["counts"]["fail"] == 0


# ---------------------------------------------------------------------------
# verify / bench / family


def test_verify_core_small_and_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "core", "--seed", "1", "--window", "512",
            "--trials", "6"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["counts"]["fail"] == 0
    assert doc["environment"]["seed"] == 1


def test_verify_csv_format(capsys):
    code = cli.main(
        ["verify", "--suite", "norms", "--window", "256", "--trials", "4",
         "--format", "csv"]
    )
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "case,status,observed_constant"
    assert all(",fail," not in line for line in out[1:])


def test_verify_unknown_suite_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "everything"])


def test_bench_csv(capsys):
    code = cli.main(["bench", "--sizes", "64,128", "--format", "csv"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "size,naive_seconds,fast_seconds,speedup,max_relative_deviation"
    assert len(out) == 3
    assert out[1].split(",")[0] == "64"
    assert float(out[1].split(",")[4]) <= 1e-9


def test_bench_bad_sizes(capsys):
    assert cli.main(["bench", "--sizes", "64,potato"]) == 2


@pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
@pytest.mark.parametrize(
    "argv",
    [["optrange", "fnorm", "--in", "IMPULSE"], ["optrange", "member-weakl1", "--in", "IMPULSE"],
     ["family", "--kind", "Spikes", "--count", "2"]],
    ids=["fnorm", "member-weakl1", "family"],
)
def test_csv_format_of_a_json_only_verb_is_a_usage_error(capsys, impulse_file, argv, before):
    argv = [impulse_file if a == "IMPULSE" else a for a in argv]
    argv = ["--format", "csv", *argv] if before else [*argv, "--format", "csv"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and "--format csv is not supported" in captured.err


def test_calderon_csv(capsys, impulse_file):
    # S e_0 = 1/(n+1): one row per index of the window
    code = cli.main(["calderon", "--in", impulse_file, "--window", "3", "--format", "csv"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "index,value,tail_halfwidth"
    assert [float(r.split(",")[1]) for r in out[1:]] == [1.0, 0.5, 1.0 / 3.0]
    assert [r.split(",")[0] for r in out[1:]] == ["0", "1", "2"]


def test_family_outputs_loadable_sequences(capsys):
    code, docs = run_json(capsys, ["family", "--kind", "RandomSigned", "--count", "3"])
    assert code == 0
    assert isinstance(docs, list) and len(docs) == 3
    for d in docs:
        sequence_from_json(d)


def test_family_deterministic_under_seed(capsys):
    code1, docs1 = run_json(capsys, ["family", "--kind", "Spikes", "--count", "2", "--seed", "9"])
    code2, docs2 = run_json(capsys, ["family", "--kind", "Spikes", "--count", "2", "--seed", "9"])
    assert code1 == code2 == 0
    assert docs1 == docs2


def test_missing_input_file_is_usage_error(capsys, tmp_path):
    assert cli.main(["rearrange", "--in", str(tmp_path / "absent.json")]) == 2


_IMPULSE = {"kind": "finite", "domain": "half_line", "offset": 0, "values": [1.0]}


@pytest.mark.parametrize(
    "seq_doc, space_doc",
    [
        ({"kind": "power_log", "alpha": None, "beta": 0}, None),
        ({"kind": "power_log", "alpha": 1.0, "beta": 0, "scale": None}, None),
        ({"kind": "power_log", "alpha": [1], "beta": 0}, None),
        ({"kind": "finite", "domain": "half_line", "offset": 0, "values": {"a": 1}}, None),
        (_IMPULSE, {"space": "lorentz_phi", "phi": {"power": None}}),
    ],
    ids=["alpha_null", "scale_null", "alpha_list", "values_object", "phi_power_null"],
)
def test_non_numeric_wire_field_is_usage_error(capsys, tmp_path, seq_doc, space_doc):
    seq = tmp_path / "x.json"
    seq.write_text(json.dumps(seq_doc))
    space = "weak_l1"
    if space_doc is not None:
        space = str(tmp_path / "space.json")
        (tmp_path / "space.json").write_text(json.dumps(space_doc))
    assert cli.main(["norm", "--in", str(seq), "--space", space]) == 2
    assert "usage error" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path, capsys, impulse_file):
    dest = tmp_path / "vals.json"
    code = cli.main(["calderon", "--in", impulse_file, "--window", "2", "--out", str(dest)])
    assert code == 0
    doc = json.loads(dest.read_text())
    assert doc["values"][0] == pytest.approx(1.0)
