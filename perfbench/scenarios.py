"""The benchmark's three workloads and the reasons they were chosen.

Each workload is an open-loop trace on the Azure-shaped arrival
schedule (gamma inter-arrivals, CV 1.4) at a stationary rate near 0.8
of the fleet's measured capacity, served by ``v-lora`` engines through
``MultiGPUServer``.  A run simulates ``shards`` independent traces of
``duration_s`` simulated seconds, each from its own seed derived from
the run's ``--seed``; the simulated metrics pool all shards.

``stresses`` names the layers (``spans.LAYER_NAMES``) that dominate a
workload's host time; ``bypasses`` names the layers and mechanisms it
never exercises, where a change is predicted to leave it unchanged.
``LAYER_MAP`` says which end-to-end metric, on which workload, each
per-layer metric should move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import SystemBuilder
from repro.runtime import (
    AutoscaleConfig,
    DisaggConfig,
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    HedgeConfig,
    MultiGPUServer,
    Request,
    RetryBudget,
    RetryBudgetConfig,
)
from repro.workloads import RetrievalWorkload
from repro.workloads.skew import zipf_shares

#: Called with every engine a traced execution builds (tracer hook).
EngineHook = Optional[Callable[[object], None]]


@dataclass(frozen=True)
class Scenario:
    """One workload: its traffic, its fleet, and why it is measured."""

    name: str
    why: str
    stresses: Tuple[str, ...]
    bypasses: Tuple[str, ...]
    rate_rps: float
    duration_s: float
    shards: int
    build: Callable[["Scenario", int, EngineHook],
                    Tuple[MultiGPUServer, List[Request]]]

    def setup(self, seed: int, on_engine: EngineHook = None
              ) -> Tuple[MultiGPUServer, List[Request]]:
        """Generate one shard's trace and build the server it runs on."""
        return self.build(self, seed, on_engine)


def shard_seed(seed: int, shard: int) -> int:
    """The trace seed of one shard of a run."""
    return int(np.random.SeedSequence([seed, shard]).generate_state(1)[0])


def _factory(builder: SystemBuilder, on_engine: EngineHook):
    def make():
        engine = builder.build("v-lora")
        if on_engine is not None:
            on_engine(engine)
        return engine
    return make


def _gen_static(sc: Scenario, seed: int, on_engine: EngineHook):
    builder = SystemBuilder(num_adapters=8, max_batch_size=32)
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=sc.rate_rps, duration_s=sc.duration_s,
        use_task_heads=False, top_adapter_share=0.8, seed=seed,
    ).generate()
    server = MultiGPUServer.replicate(_factory(builder, on_engine), 2)
    return server, requests


def _video_zipf(sc: Scenario, seed: int, on_engine: EngineHook):
    num_adapters = 1024
    builder = SystemBuilder(num_adapters=num_adapters, gpu_adapter_slots=32,
                            adapter_rank=384, max_batch_size=32)
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=sc.rate_rps, duration_s=sc.duration_s,
        task_mix={"object_detection": 0.8, "video_understanding": 0.2},
        adapter_shares=zipf_shares(num_adapters, 1.0), adapter_burst=4,
        seed=seed,
    ).generate()
    server = MultiGPUServer.replicate(_factory(builder, on_engine), 8,
                                      dispatch="locality")
    return server, requests


#: disagg-chaos fault cycle: every period, an 8x straggler on a decode
#: replica, then a healing partition of a prefill replica.  Both pools
#: drain to their one-replica minimum in the first control epoch (no
#: queue yet), keeping gpu-0 (prefill) and gpu-3 (decode); the faults
#: target those two so that they keep recurring.  Scale-down needs the
#: queue below a tenth of its target, so the decode pool keeps the
#: straggling replica while the load lasts.
CHAOS_PERIOD_S = 30.0
STRAGGLER_S = 8.0
PARTITION_S = 2.0


def _chaos_faults(duration_s: float) -> FaultInjector:
    specs = []
    start = 5.0
    while start < duration_s:
        specs.append(FaultSpec(FaultKind.ENGINE_SLOW, start=start,
                               duration=STRAGGLER_S, magnitude=8.0,
                               target="gpu-3"))
        specs.append(FaultSpec(FaultKind.NETWORK_PARTITION,
                               start=start + 12.0, duration=PARTITION_S,
                               target="gpu-0"))
        start += CHAOS_PERIOD_S
    return FaultInjector(specs)


def _disagg_chaos(sc: Scenario, seed: int, on_engine: EngineHook):
    builder = SystemBuilder(num_adapters=8, max_batch_size=32,
                            fault_injector=_chaos_faults(sc.duration_s))
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=sc.rate_rps, duration_s=sc.duration_s,
        use_task_heads=False, seed=seed,
    ).generate()
    disagg = DisaggConfig(
        prefill_replicas=2, decode_replicas=2,
        prefill_autoscale=AutoscaleConfig(
            min_replicas=1, max_replicas=3, target_queue_per_replica=4.0,
            down_fraction=0.1),
        decode_autoscale=AutoscaleConfig(
            min_replicas=1, max_replicas=3, target_queue_per_replica=32.0,
            down_fraction=0.1),
    )
    server = MultiGPUServer.replicate(
        _factory(builder, on_engine), 4, disagg=disagg,
        hedge=HedgeConfig(percentile=95.0),
        retry_budget=RetryBudget(RetryBudgetConfig(ratio=0.1)),
        detector=FailureDetector(FailureDetectorConfig()),
        max_requeues=4,
    )
    return server, requests


#: Per-layer metrics -> the end-to-end metric and workload they should move.
LAYER_MAP: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("workloads.generate", "core.build", "kernels.default_table"),
     "setup_s on every workload, most on video-zipf"),
    (("engine.step", "engine.prefill", "engine.decode"),
     "sim_req_per_s on gen-static; engine.prefill also on video-zipf"),
    (("scheduler.schedule",), "sim_req_per_s on gen-static and disagg-chaos"),
    (("kv.append_token",), "sim_req_per_s on gen-static"),
    (("kv.allocate", "kv.free"), "sim_req_per_s on video-zipf"),
    (("costcache.lookup", "costcache.hit_ratio"),
     "sim_req_per_s on gen-static"),
    (("adapters.try_ensure_resident", "adapters.resident_ids",
      "placement.decide", "placement.rebalance",
      "placement.refresh_from_engines"), "sim_req_per_s on video-zipf"),
    (("cluster.run", "detector.evaluate", "hedge.observe",
      "hedge.threshold", "retry_budget.try_spend", "costcache.transfer"),
     "sim_req_per_s on disagg-chaos"),
    (("metrics.complete", "metrics.merge_from", "metrics.summary"),
     "sim_req_per_s and peak_rss_mib on every workload"),
    (("sim.iterations_per_req", "sim.batch_size_mean",
      "sim.prefill_tokens_per_iter", "sim.decode_tokens_per_iter"),
     "ttft and tpot on every workload"),
    (("sim.mode_switches", "sim.switch_s", "sim.swap_ins",
      "sim.swap_stall_s", "sim.adapter_hit_ratio", "sim.placement_spills",
      "sim.placement_replications"), "ttft_p99_s on video-zipf"),
    (("sim.preemptions", "sim.kv_stall_iters"), "tpot_p99_s on gen-static"),
    (("sim.kv_transfers", "sim.kv_transfer_s"),
     "ttft_p99_s and e2e_p99_s on disagg-chaos"),
    (("sim.hedges_fired", "sim.hedge_wins", "sim.hedge_win_ratio",
      "sim.fenced_completions", "sim.suspicions", "sim.false_suspicions",
      "sim.replicas_spawned"),
     "ttft_p99_s, gpu_s_per_req and fail_frac on disagg-chaos"),
    (("sim.gpu_busy_frac",), "gpu_s_per_req on every workload"),
    (("sim.aborts.*",), "fail_frac on every workload"),
)

_CONTROL_PLANE = ("costcache.transfer", "detector.evaluate", "hedge.observe",
                  "hedge.threshold", "retry_budget.try_spend")
_PLACEMENT = ("placement.decide", "placement.rebalance",
              "placement.refresh_from_engines")

SCENARIOS: Dict[str, Scenario] = {sc.name: sc for sc in (
    Scenario(
        name="gen-static",
        why=("decode-heavy LM-head traffic on the static cluster loop: "
             "engine step, cost cache, scheduler and KV appends dominate"),
        stresses=("engine.step", "engine.decode", "costcache.lookup",
                  "scheduler.schedule", "kv.append_token"),
        bypasses=("adapter swap-ins", "the epoched cluster loop")
        + _PLACEMENT + _CONTROL_PLANE,
        rate_rps=16.0, duration_s=300.0, shards=4, build=_gen_static,
    ),
    Scenario(
        name="video-zipf",
        why=("one-token task-head traffic over 1024 Zipf adapters: prefill, "
             "swaps, mode switches and locality placement dominate"),
        stresses=("engine.prefill", "kv.allocate", "kv.free",
                  "adapters.try_ensure_resident", "adapters.resident_ids")
        + _PLACEMENT,
        bypasses=("decode iterations", "kv.append_token growth past the "
                  "first token") + _CONTROL_PLANE,
        rate_rps=35.0, duration_s=100.0, shards=30, build=_video_zipf,
    ),
    Scenario(
        name="disagg-chaos",
        why=("split prefill/decode pools with autoscaling, hedging, a retry "
             "budget and a phi detector under recurring straggler and "
             "partition faults"),
        stresses=("cluster.run", "scheduler.schedule") + _CONTROL_PLANE,
        bypasses=("adapter swap-ins",) + _PLACEMENT,
        rate_rps=16.0, duration_s=150.0, shards=4, build=_disagg_chaos,
    ),
)}
