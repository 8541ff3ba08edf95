"""Schema of BENCHMARK.json and of the recorded benchmark results.

Checks names, units and required fields only; no timing is asserted.
"""

import json
import re
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RESULTS = sorted((HERE / "results").glob("BENCH_*.json"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
ENV_FIELDS = ("nproc", "python", "numpy", "blas", "blas_threads", "peak_rss_method", "load")


def _metric_specs(kind):
    return [(m["name"], m["unit"]) for m in SPEC[kind]]


def test_benchmark_json_layout():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.fullmatch(w["name"]) and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_metric_entries():
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_matches_harness(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from workloads import WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _metric_specs("end_to_end") == list(run.END_TO_END)
    assert _metric_specs("per_layer") == run.per_layer_spec()


def test_pins_cover_every_input_set(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from workloads import PINNED_SEEDS, PINS
    pins = json.loads(PINS.read_text())
    fields = {"train_c8": {"val_rmse_st", "weights"},
              "infer_long": {"out_events", "sr_rmse_st"}}
    assert set(pins) == set(fields)
    for name, want in fields.items():
        assert set(pins[name]) == {str(k) for k in range(PINNED_SEEDS)}
        for value in pins[name].values():
            assert set(value) == want


def test_recorded_results():
    assert RESULTS, "no recorded result under perfbench/results"
    for path in RESULTS:
        result = json.loads(path.read_text())
        for field in ENV_FIELDS:
            assert field in result["env"], f"{path.name}: env lacks {field}"
        assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
        for name, runs in result["workloads"].items():
            for mode, kind in (("untraced", "end_to_end"), ("traced", "per_layer")):
                got = runs[mode]
                assert set(got) >= {"correct", "attempted", "failed", "metrics", "seed"}
                assert got["correct"] is True and got["failed"] == 0
                assert got["attempted"] >= 1
                units = {k: v["unit"] for k, v in got["metrics"].items()}
                assert units == dict(_metric_specs(kind)), f"{path.name}: {name} {mode}"
        for row in result["baseline"]:
            assert set(row) == {"probe", "roadmap", "measured", "source", "note"}
