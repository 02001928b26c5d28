"""Fig. 16 — latency of the vision task head vs. the original LM head.

Paper: on video-analytics tasks the vision task head answers in one
decode round instead of an autoregressive sequence, cutting latency by
41-63% and letting one GPU handle 3-4 video streams in real time.
"""

from _common import ms, reduction

from repro.core import SystemBuilder
from repro.workloads import VideoAnalyticsWorkload

STREAM_COUNTS = (1, 2, 3, 4)


def run_experiment():
    builder = SystemBuilder(num_adapters=4)
    out = {}
    for streams in STREAM_COUNTS:
        row = {}
        for head, label in ((False, "lm_head"), (True, "vision_head")):
            engine = builder.build("v-lora")
            wl = VideoAnalyticsWorkload(
                builder.adapter_ids, num_streams=streams, duration_s=20.0,
                use_task_heads=head, seed=16,
            )
            engine.submit(wl.generate())
            metrics = engine.run()
            row[label] = {
                "mean_latency_ms": ms(metrics.mean_latency()),
                "p90_latency_ms": ms(metrics.latency_percentile(90)),
            }
        row["reduction_pct"] = round(
            100 * (1 - row["vision_head"]["mean_latency_ms"]
                   / row["lm_head"]["mean_latency_ms"]), 1
        )
        # Real time = every chunk's work finishes within its 1 s period.
        row["realtime"] = row["vision_head"]["p90_latency_ms"] < 1000.0
        out[streams] = row
    return out


def test_fig16_vision_head(benchmark, results):
    data = run_experiment()

    from repro.hardware import A100_80GB
    from repro.models import QWEN_VL_7B, IterationCostModel
    costs = IterationCostModel(QWEN_VL_7B, A100_80GB)
    benchmark(costs.decode_seconds, [512] * 8, lm_head=False,
              task_head_classes=101)

    rows = [
        [s,
         data[s]["lm_head"]["mean_latency_ms"],
         data[s]["vision_head"]["mean_latency_ms"],
         f"-{data[s]['reduction_pct']}%",
         "yes" if data[s]["realtime"] else "no"]
        for s in STREAM_COUNTS
    ]
    results.print_table(
        "Fig 16: LM head vs vision task head on video analytics "
        "(paper: 41-63% latency reduction; 3-4 real-time streams)",
        ["streams", "LM head ms", "vision head ms", "reduction", "real-time"],
        rows,
    )
    results.save("fig16_vision_head", {str(k): v for k, v in data.items()})

    for s in STREAM_COUNTS:
        assert data[s]["reduction_pct"] > 30  # paper: 41-63%
    # The paper's "3-4 streams in real time": 3 must hold here.
    assert data[2]["realtime"]
    assert data[3]["realtime"]
