"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _modules():
    root = os.path.join(run.SRC, "repro")
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, f[:-3]), run.SRC)
                module = rel.replace(os.sep, ".")
                yield module[:-len(".__init__")] \
                    if module.endswith(".__init__") else module


def test_layer_map_covers_every_module_exactly_once():
    modules = sorted(_modules())
    assert len(modules) > 100
    for module in modules:
        layers.module_layer(module)  # raises unless exactly one owner
    for layer, patterns in layers.LAYERS.items():
        for pattern in patterns:
            assert any(layers._matches(pattern, m) for m in modules), \
                f"{layer}: {pattern} matches no module"
    with pytest.raises(LookupError, match="repro.sim.no_such_module"):
        layers.module_layer("repro.sim.no_such_module")
    with pytest.raises(LookupError, match="repro.nowhere"):
        layers.LayerMap(run.SRC, HERE).file_layer(
            os.path.join(run.SRC, "repro", "nowhere.py"))


def test_traced_shares_sum_to_one_and_counts_repeat():
    from repro.cli import main

    def job():
        return workloads._capture(lambda: main(
            ["run", "--nodes", "4", "--data-gb", "4", "--store", "ssd",
             "--elb", "--seed", "3"]))

    job()  # first run pays for lazy imports
    traces = [workloads.profile(job)[2] for _ in range(2)]
    for trace in traces:
        shares = [row["share"] for row in trace["layers"].values()]
        assert set(trace["layers"]) == set(layers.ALL_LAYERS)
        assert abs(sum(shares) - 1.0) < 1e-9
        assert trace["events"] > 0 and trace["core.engine.jobs"] == 1
        assert trace["core.scheduler.stages"] == 3
    first, second = ({layer: row["calls_in"]
                      for layer, row in trace["layers"].items()}
                     for trace in traces)
    assert first == second and first["sim.core"] > 0
    counts = [{k: v for k, v in t.items() if k != "layers"} for t in traces]
    assert counts[0] == counts[1]


def test_tampered_golden_fails_every_iteration(tmp_path, monkeypatch,
                                                capsys):
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    good = golden["fabric_wave_10x"]["0"]
    golden["fabric_wave_10x"]["0"] = dict(good, stdout="0" * 64)
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", str(tampered))
    monkeypatch.setattr(run, "MIN_ITERS", 1)
    out = tmp_path / "record.json"
    code = run.main(["--workload", "fabric_wave_10x", "--seed", "0",
                     "--seconds", "0", "--out", str(out)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = json.loads(out.read_text())
    assert code != 0
    assert record["failed_frac"] == 1.0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "golden" in record["samples"][0]["error"]


def test_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.metric_names())
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    assert {w: sorted(g) for w, g in golden.items()} == \
        {w: ["0", "1"] for w in workloads.WORKLOADS}
