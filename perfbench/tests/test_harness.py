"""The traced/untraced execution path on short versions of the workloads."""

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import harness, spans
from perfbench.scenarios import SCENARIOS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: Short enough for a test, long enough that disagg-chaos sees a fault.
SHORT = {"gen-static": 10.0, "video-zipf": 10.0, "disagg-chaos": 40.0}


def _owners():
    import importlib
    out = {}
    for _, module, cls, attrs in spans.LAYERS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        for attr in attrs:
            out[(module, cls, attr)] = vars(owner).get(attr)
    return out


@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_run_matches_untraced_and_reports_every_layer(name, tmp_path):
    sc = dataclasses.replace(SCENARIOS[name], duration_s=SHORT[name],
                             shards=2)
    before = _owners()
    plain, traced = harness.run_traced(sc, seed=7)
    assert _owners() == before  # every wrapped entry point restored

    values = harness.layer_metrics(plain, traced)
    for metric in BENCHMARK["per_layer"]:
        assert values[metric["name"]] is not None, metric["name"]
    assert values["engine.step.calls"] > 0
    assert values["cluster.run.calls"] == 2
    for ex in traced:
        assert ex.tracer.by_root["cluster.run"] <= ex.run_s
    assert spans.write_chrome_trace(
        tmp_path / "t.json", [ex.tracer for ex in traced]) > 0

    serving = harness.serving(plain)
    for metric in BENCHMARK["end_to_end"]:
        if metric["name"] not in harness.HOST_UNITS:
            assert serving[metric["name"]][0] is not None, metric["name"]
    if name == "video-zipf":
        assert serving["tpot_p50_s"] == (None, 0)


def test_repeats_reproduce_and_host_metrics_are_positive():
    sc = dataclasses.replace(SCENARIOS["gen-static"], duration_s=5.0,
                             shards=2)
    first, executions, setups, rss = harness.run_untraced(sc, seed=3,
                                                          seconds=0.5)
    assert len(executions) >= len(first) == 2
    assert len(setups) >= harness.SETUP_SAMPLES
    host = harness.host_metrics(executions, setups, rss)
    assert all(v > 0 for v in host.values())
    assert all(v > 0 for v in harness.raw_host_metrics(executions).values())


def test_execution_gate_rejects_lost_terminals(monkeypatch):
    sc = dataclasses.replace(SCENARIOS["gen-static"], duration_s=5.0,
                             shards=1)
    from repro.runtime.metrics import MetricsCollector

    original = MetricsCollector.complete

    def drop_first(self, req):
        if req.request_id != 0:
            original(self, req)

    monkeypatch.setattr(MetricsCollector, "complete", drop_first)
    with pytest.raises(harness.GateError, match="exactly once"):
        harness.execute(sc, seed=1, shard=0)
