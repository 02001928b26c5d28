"""Ablation (§5 "KV cache reuse") — prefix reuse for repeated images.

Multi-round VQA revisits the same image; reusing its KV blocks avoids
recomputing the (large) visual prefix at prefill.  This bench serves the
same image-heavy retrieval workload with and without prefix reuse.
"""

import dataclasses

from _common import ms, reduction

from repro.core import SystemBuilder
from repro.workloads import RetrievalWorkload


def _build(builder, enable_reuse):
    engine = builder.build("v-lora")
    engine.config = dataclasses.replace(
        engine.config, enable_prefix_reuse=enable_reuse
    )
    return engine


def run_experiment():
    builder = SystemBuilder(num_adapters=4)
    out = {}
    for reuse in (True, False):
        engine = _build(builder, reuse)
        wl = RetrievalWorkload(
            builder.adapter_ids, rate_rps=8.0, duration_s=25.0,
            image_reuse_prob=0.5, image_pool=6, seed=33,
        )
        engine.submit(wl.generate())
        metrics = engine.run()
        out["with_reuse" if reuse else "without_reuse"] = {
            "mean_latency_s": round(metrics.mean_latency(), 4),
            "mean_ttft_s": round(metrics.mean_ttft(), 4),
            "avg_token_latency_ms": ms(metrics.avg_token_latency()),
            "cached_prefixes": engine.kv.num_prefixes,
        }
    return out


def test_kv_reuse_ablation(benchmark, results):
    data = run_experiment()

    from repro.runtime.kv_cache import PagedKVCache
    kv = PagedKVCache(num_blocks=512, block_size=16)
    kv.allocate(0, 300, prefix_key="img", prefix_tokens=256)
    seq = [1]

    def hit():
        s = seq[0]
        seq[0] += 1
        kv.allocate(s, 300, prefix_key="img", prefix_tokens=256)
        kv.free(s)

    benchmark.pedantic(hit, rounds=50, iterations=1)

    rows = [
        [k, v["mean_ttft_s"], v["mean_latency_s"],
         v["avg_token_latency_ms"], v["cached_prefixes"]]
        for k, v in data.items()
    ]
    results.print_table(
        "KV prefix reuse ablation (multi-round VQA style workload)",
        ["variant", "mean TTFT s", "mean latency s", "avg tok lat ms",
         "prefixes"],
        rows,
    )
    results.save("kv_reuse_ablation", data)

    # Reuse cuts time-to-first-token (the prefill shrinks).
    assert data["with_reuse"]["mean_ttft_s"] < \
        data["without_reuse"]["mean_ttft_s"]
    assert data["with_reuse"]["mean_latency_s"] <= \
        data["without_reuse"]["mean_latency_s"] * 1.02
    assert data["with_reuse"]["cached_prefixes"] > 0
