import json
import math

import pytest

from calderon import cli
from calderon.sequences import sequence_from_json


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
    [["optrange", "fnorm"], ["optrange", "member-weakl1"], ["norm", "--space", "weak_l1"]],
)
def test_finite_value_beyond_the_double_range_exits_one(capsys, big_file, argv):
    # c_a = 3e308/log 4 and |x|_weak = 3e308 are finite but not doubles;
    # "Infinity" would claim divergence
    code = cli.main(argv + ["--in", big_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "exceeds the double range" in captured.err and "Traceback" not in captured.err


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


def test_fnorm_grid_flag(capsys, impulse_file):
    code, doc = run_json(capsys, ["optrange", "fnorm", "--in", impulse_file, "--grid", "1024"])
    assert code == 0 and doc["upper"] == pytest.approx(0.5, rel=1e-12)
    assert cli.main(["optrange", "fnorm", "--in", impulse_file, "--grid", "nonsense"]) == 2


def test_fnorm_non_member_exits_one(capsys, log_sq_profile_file):
    code = cli.main(["optrange", "fnorm", "--in", log_sq_profile_file])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert "no witness exists" in doc["error"]


def test_member_weakl1(capsys, harmonic_file, log_sq_profile_file):
    code, doc = run_json(capsys, ["optrange", "member-weakl1", "--in", harmonic_file])
    assert code == 0
    assert doc["member"] is True
    assert doc["c_a"] == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
    code, doc = run_json(capsys, ["optrange", "member-weakl1", "--in", log_sq_profile_file])
    assert code == 0
    assert doc["member"] is False and doc["c_a"] == "Infinity"


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
