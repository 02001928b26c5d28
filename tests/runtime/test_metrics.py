"""Tests for metrics accounting, including SLO attainment."""

from dataclasses import fields

import pytest

from repro.runtime import (
    AbortRecord,
    MetricsCollector,
    Request,
    RequestRecord,
    ScaleEvent,
)


def finished_request(arrival=0.0, first=0.5, finish=1.0, slo=None,
                     adapter="a", task="visual_qa",
                     input_tokens=100, output_tokens=10):
    req = Request(adapter_id=adapter, arrival_time=arrival,
                  input_tokens=input_tokens, output_tokens=output_tokens,
                  task_name=task, slo_s=slo)
    req.first_token_time = first
    req.finish_time = finish
    req.generated = output_tokens
    return req


class TestRequestRecord:
    def test_derives_latency_and_ttft(self):
        rec = RequestRecord.from_request(finished_request())
        assert rec.latency == pytest.approx(1.0)
        assert rec.ttft == pytest.approx(0.5)
        assert rec.total_tokens == 110

    def test_unfinished_rejected(self):
        req = Request(adapter_id="a", arrival_time=0.0,
                      input_tokens=1, output_tokens=1)
        with pytest.raises(ValueError):
            RequestRecord.from_request(req)


class TestCollector:
    @pytest.fixture()
    def metrics(self):
        m = MetricsCollector()
        m.complete(finished_request(arrival=0.0, finish=1.0))
        m.complete(finished_request(arrival=1.0, finish=4.0, adapter="b",
                                    task="image_caption"))
        return m

    def test_avg_token_latency_definition(self, metrics):
        """Sum of latencies over total tokens (§6.1)."""
        expected = (1.0 + 3.0) / (110 + 110)
        assert metrics.avg_token_latency() == pytest.approx(expected)

    def test_throughput_spans_arrival_to_finish(self, metrics):
        assert metrics.throughput_rps() == pytest.approx(2 / 4.0)
        assert metrics.throughput_rps(duration=10.0) == pytest.approx(0.2)

    def test_percentiles_ordered(self, metrics):
        assert metrics.latency_percentile(50) <= metrics.latency_percentile(99)

    def test_breakdowns(self, metrics):
        assert set(metrics.by_adapter()) == {"a", "b"}
        assert set(metrics.by_task()) == {"visual_qa", "image_caption"}

    def test_empty_collector_raises(self):
        with pytest.raises(ValueError):
            MetricsCollector().avg_token_latency()
        with pytest.raises(ValueError):
            MetricsCollector().throughput_rps()

    def test_summary_keys(self, metrics):
        summary = metrics.summary()
        for key in ("completed", "avg_token_latency_ms", "throughput_rps",
                    "p99_latency_s", "mode_switches", "preemptions"):
            assert key in summary
        # Summary-flagged counters stay out while zero.
        for f in fields(metrics):
            if f.metadata.get("summary"):
                assert f.name not in summary

    def test_mode_counting(self):
        m = MetricsCollector()
        m.count_mode("merged")
        m.count_mode("merged")
        m.count_mode("mixture")
        assert m.mode_iterations == {"merged": 2, "mixture": 1}


class TestSLOAttainment:
    def test_none_without_slos(self):
        m = MetricsCollector()
        m.complete(finished_request())
        assert m.slo_attainment() is None
        assert "slo_attainment" not in m.summary()

    def test_attainment_fraction(self):
        m = MetricsCollector()
        m.complete(finished_request(finish=1.0, slo=2.0))   # met
        m.complete(finished_request(finish=1.0, slo=0.5))   # missed
        m.complete(finished_request(finish=1.0))            # no SLO
        assert m.slo_attainment() == pytest.approx(0.5)
        assert m.summary()["slo_attainment"] == pytest.approx(0.5)

    def test_request_met_slo_helper(self):
        met = finished_request(finish=1.0, slo=2.0)
        missed = finished_request(finish=1.0, slo=0.5)
        plain = finished_request(finish=1.0)
        assert met.met_slo() is True
        assert missed.met_slo() is False
        assert plain.met_slo() is None

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            Request(adapter_id="a", arrival_time=0.0, input_tokens=1,
                    output_tokens=1, slo_s=0.0)

    def test_engine_reports_attainment(self):
        from repro.core import SystemBuilder
        builder = SystemBuilder(num_adapters=2)
        engine = builder.build("v-lora")
        reqs = [
            Request(adapter_id="lora-0", arrival_time=0.01 * i,
                    input_tokens=64, output_tokens=2, slo_s=30.0)
            for i in range(5)
        ]
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.slo_attainment() == 1.0


# One element per list field; a new list field without an entry here
# fails the merge test below until it gets one.
_LIST_ELEMENTS = {
    "records": lambda k: RequestRecord(
        request_id=k, adapter_id="a", task_name="visual_qa",
        arrival_time=0.0, first_token_time=0.1 * k, finish_time=1.0 * k,
        input_tokens=10, output_tokens=k, slo_s=2.0),
    "aborts": lambda k: AbortRecord(
        request_id=100 + k, adapter_id="b", task_name="visual_qa",
        arrival_time=0.0, abort_time=0.5 * k, reason="kv_exhausted",
        input_tokens=10, output_tokens=5, generated=0, slo_s=1.0),
    "scale_events": lambda k: ScaleEvent(
        time=float(k), action="spawn", replica_id=f"gpu-{k}",
        reason="test", num_members=k),
    "detection_latencies": lambda k: 0.25 * k,
}


def _filled_collector(k: int) -> MetricsCollector:
    """A collector with every field at a distinct non-default value."""
    m = MetricsCollector()
    for i, f in enumerate(fields(m)):
        default = getattr(m, f.name)
        if isinstance(default, list):
            value = [_LIST_ELEMENTS[f.name](k)]
        elif isinstance(default, dict):
            value = {"merged": k, f"only-{k}": 10 * k}
        elif isinstance(default, float):
            value = 1000.0 * k + i + 0.5
        else:
            assert type(default) is int, f"no merge rule for {f.name}"
            value = 1000 * k + i
        setattr(m, f.name, value)
    return m


class TestMergeFrom:
    def test_every_declared_field_merges(self):
        a, b = _filled_collector(1), _filled_collector(2)
        merged = MetricsCollector()
        merged.merge_from(a)
        merged.merge_from(b)
        for f in fields(merged):
            got = getattr(merged, f.name)
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, list):
                assert got == va + vb, f.name
            elif isinstance(va, dict):
                assert got == {"merged": 3, "only-1": 10, "only-2": 20}
            else:
                assert got == va + vb and type(got) is type(va), f.name

        summary = merged.summary()
        assert summary["completed"] == 2.0
        assert summary["aborted"] == 2.0
        assert summary["aborted_kv_exhausted"] == 2.0
        assert summary["mode_switches"] == float(merged.num_mode_switches)
        flagged = [f.name for f in fields(merged)
                   if f.metadata.get("summary")]
        for name in flagged:
            assert summary[name] == float(getattr(merged, name)), name
        # Flagged counters print in declaration order.
        printed = [key for key in summary if key in flagged]
        assert printed == flagged
        assert summary["swap_ins"] == float(merged.swap_ins)
        assert summary["adapter_cache_hit_ratio"] == (
            merged.adapter_cache_hits
            / (merged.adapter_cache_hits + merged.adapter_cache_misses))
        assert summary["detection_latency_p99_s"] == pytest.approx(
            0.25 + 0.25 * 0.99)
        # Both records met their 2 s SLO; both aborts carried an SLO
        # and count as misses.
        assert summary["slo_attainment"] == 0.5
