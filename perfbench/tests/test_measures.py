"""The benchmark's own arithmetic, on synthetic records and spans.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from dataclasses import dataclass

import pytest

from perfbench import measures
from perfbench.spans import SpanTracer


@dataclass
class Rec:
    arrival_time: float
    first_token_time: float
    finish_time: float
    output_tokens: int
    input_tokens: int = 100
    request_id: int = 0


def test_tpot_over_tokens_after_the_first():
    r = Rec(arrival_time=0.0, first_token_time=0.5, finish_time=2.5,
            output_tokens=5)
    assert measures.tpot(r) == pytest.approx(0.5)
    assert measures.tpot(Rec(0.0, 0.5, 0.5, output_tokens=1)) is None
    samples = measures.tpot_samples([r, Rec(0.0, 0.2, 0.2, 1),
                                     Rec(1.0, 1.1, 1.3, 3)])
    assert samples == pytest.approx([0.5, 0.1])


def test_joint_slo_counts_aborts_and_either_limit_as_misses():
    records = [
        Rec(0.0, 0.4, 0.4 + 9 * 0.04, output_tokens=10),   # meets both
        Rec(0.0, 1.5, 1.5 + 9 * 0.01, output_tokens=10),   # TTFT miss
        Rec(0.0, 0.2, 0.2 + 9 * 0.06, output_tokens=10),   # TPOT miss
        Rec(0.0, 0.9, 0.9, output_tokens=1),               # TTFT only
    ]
    # Six submitted: the two without a record were aborted.
    attained = measures.slo_attainment(records, submitted=6)
    assert attained == pytest.approx(2 / 6)
    assert measures.slo_attainment([], submitted=3) == 0.0
    assert measures.slo_attainment([], submitted=0) is None


def test_percentiles_report_their_sample_counts():
    assert measures.percentile([], 99.0) == (None, 0)
    value, n = measures.percentile([1.0, 2.0, 3.0, 4.0], 50.0)
    assert (value, n) == (2.5, 4)
    value, n = measures.percentile(list(range(101)), 99.0)
    assert (value, n) == (99.0, 101)
    with pytest.raises(ValueError):
        measures.percentile([1.0], 101.0)


def test_serving_metrics_sample_counts_and_absent_values():
    records = [Rec(0.0, 0.1, 0.1 + 3 * 0.02, output_tokens=4),
               Rec(1.0, 1.3, 1.3, output_tokens=1)]
    m = measures.serving_metrics(records, submitted=3, aborted=1,
                                 gpu_seconds=10.0)
    assert m["ttft_p50_s"] == (pytest.approx(0.2), 2)
    assert m["tpot_p50_s"] == (pytest.approx(0.02), 1)
    assert m["e2e_p99_s"][1] == 2
    assert m["gpu_s_per_req"] == (5.0, 2)
    assert m["fail_frac"] == (pytest.approx(1 / 3), 3)
    # Latency of both over their 100+4 and 100+1 tokens.
    assert m["avg_token_latency_ms"][0] == pytest.approx(
        (0.16 + 0.3) / 205 * 1e3)

    one_token = measures.serving_metrics(records[1:], 1, 0, 1.0)
    assert one_token["tpot_p50_s"] == (None, 0)
    assert one_token["tpot_p99_s"] == (None, 0)

    nothing_completed = measures.serving_metrics([], 4, 4, 8.0)
    assert nothing_completed["fail_frac"] == (1.0, 4)
    assert nothing_completed["slo_attain"] == (0.0, 4)
    for name in ("ttft_p50_s", "ttft_p99_s", "e2e_p99_s",
                 "avg_token_latency_ms", "gpu_s_per_req"):
        assert nothing_completed[name][0] is None


def test_exactly_once_violations():
    ok = measures.exactly_once_violations([1, 2, 3], [1, 3], [2])
    assert ok == {"duplicates": 0, "missing": 0, "unknown": 0}
    bad = measures.exactly_once_violations([1, 2, 3, 4], [1, 1, 2], [2, 9])
    assert bad == {"duplicates": 2, "missing": 2, "unknown": 1}


def test_self_time_of_nested_spans():
    spans = [
        (0, None, "cluster.run", 0.0, 10.0),
        (1, 0, "engine.step", 1.0, 4.0),
        (2, 1, "kv.append_token", 2.0, 3.0),
        (3, 0, "engine.step", 5.0, 6.0),
    ]
    out = measures.self_times(spans)
    assert out["cluster.run"] == (1, pytest.approx(6.0))
    assert out["engine.step"] == (2, pytest.approx(3.0))
    assert out["kv.append_token"] == (1, pytest.approx(1.0))
    # Self times partition the root span.
    assert sum(t for _, t in out.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        (0, None, "parent", 0.0, 10.0),
        (1, 0, "a", 1.0, 5.0),
        (2, 0, "b", 3.0, 7.0),    # overlaps a by 2 s
        (3, 0, "c", 6.0, 6.5),    # inside b
        (4, 0, "d", 9.0, 12.0),   # runs past the parent's end
    ]
    assert measures.self_times(spans)["parent"] == (1, pytest.approx(3.0))
    assert measures.covered([(1, 5), (3, 7), (6, 6.5)]) == pytest.approx(6.0)
    assert measures.covered([]) == 0.0


def test_tracer_self_times_match_the_offline_fold():
    tracer = SpanTracer("test")
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))

    def middle():
        leaf()
        leaf()

    wrapped_middle = tracer.wrap("middle", middle)
    # Same-layer re-entry folds into the outer span.
    outer = tracer.wrap("outer", lambda: [wrapped_middle() for _ in range(3)])
    reentrant = tracer.wrap("outer", outer)
    reentrant()

    offline = measures.self_times(tracer.spans)
    assert tracer.stats["outer"][0] == 1
    assert tracer.stats["middle"][0] == 3
    assert tracer.stats["leaf"][0] == 6
    for layer, (calls, own) in offline.items():
        assert tracer.stats[layer][0] == calls
        assert tracer.stats[layer][1] == pytest.approx(own)
    root = [s for s in tracer.spans if s[1] is None]
    assert len(root) == 1
    assert tracer.by_root["outer"] == pytest.approx(root[0][4] - root[0][3])


def test_spread_is_interquartile_range_over_median():
    assert measures.spread([1.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert measures.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
