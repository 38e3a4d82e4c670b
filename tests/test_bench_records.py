"""Schema of the committed benchmark records BENCH_*.json at the repo root.

Each record compares a parent and a change on every workload of
BENCHMARK.json: medians and quartiles of each end-to-end metric, the machine
it ran on, and the traced layer counts that explain the difference.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
LAYER_KEYS = ("operators.calderon.calls", "optimal_range.calderon_calls_per_f_norm",
              "suites.optrange.s")
SIDES = ("parent", "change")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_every_workload_metric_and_layer(path):
    spec = benchmark_spec()
    metrics = [m["name"] for m in spec["end_to_end"]]
    rec = json.loads(path.read_text(encoding="utf-8"))
    assert rec["command"].startswith("python3 perfbench/run.py")
    assert {"python", "numpy", "cpu_count"} <= set(rec["machine"])
    assert set(rec["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, w in rec["workloads"].items():
        assert isinstance(w["pairs"], int) and w["pairs"] >= 1, name
        for side in SIDES:
            assert isinstance(w[side]["failed"], int), (name, side)
            for m in metrics:
                q = w[side][m]
                assert q["q1"] <= q["median"] <= q["q3"], (name, side, m)
        for side in SIDES:
            layers = rec["layers"][name][side]
            assert all(isinstance(layers[k], (int, float)) for k in LAYER_KEYS), (name, side)
