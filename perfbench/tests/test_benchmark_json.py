"""BENCHMARK.json stays in step with the code that produces its metrics."""

import json
import re
from pathlib import Path

from wirabench import cli, layers
from wirabench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_and_command():
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_workloads_match_the_code():
    bench = load()
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])


def test_metrics_match_the_code():
    bench = load()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(cli.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS
    ]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [
        w["name"] for w in bench["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])


def test_bounds():
    bench = load()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
