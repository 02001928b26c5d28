"""Fault injection and graceful degradation of the serving engine."""

import math

import pytest

from repro.core import SystemBuilder
from repro.runtime import (
    AbortReason,
    BreakerConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    FaultSpecError,
    InferenceMode,
    MultiGPUServer,
    Request,
    RequestStatus,
)
from repro.runtime.kv_cache import PagedKVCache


def burst(adapters, n=6, input_tokens=128, output_tokens=4, arrival=0.0,
          **kwargs):
    return [
        Request(adapter_id=adapters[i % len(adapters)],
                arrival_time=arrival + 0.001 * i,
                input_tokens=input_tokens, output_tokens=output_tokens,
                **kwargs)
        for i in range(n)
    ]


class TestFaultSpec:
    def test_window_activity(self):
        s = FaultSpec(FaultKind.KV_PRESSURE, start=1.0, duration=2.0,
                      magnitude=0.5)
        assert not s.active_at(0.5)
        assert s.active_at(1.0)
        assert s.active_at(2.9)
        assert not s.active_at(3.0)

    def test_engine_fail_is_permanent(self):
        s = FaultSpec(FaultKind.ENGINE_FAIL, start=1.0, duration=0.1,
                      target="gpu-0")
        assert s.active_at(1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.KV_PRESSURE, start=0.0, magnitude=1.5)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.ENGINE_SLOW, start=0.0, magnitude=0.5)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, start=-1.0)

    def test_validation_raises_typed_error(self):
        # FaultSpecError subclasses ValueError (old handlers keep working).
        assert issubclass(FaultSpecError, ValueError)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.NETWORK_PARTITION, start=-0.5)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.HEARTBEAT_LOSS, start=0.0, duration=0.0)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.ENGINE_FAIL, start=0.0, duration=-1.0)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.KV_PRESSURE, start=0.0, magnitude=-0.1)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.KV_PRESSURE, start=0.0, magnitude=1.0)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.SCALE_STALL, start=0.0, magnitude=0.9)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.LOAD_BURST, start=0.0, magnitude=0.5)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.KV_PRESSURE, start=math.nan)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.KV_PRESSURE, start=0.0, duration=math.nan)
        with pytest.raises(FaultSpecError):
            FaultSpec(FaultKind.KV_PRESSURE, start=0.0, magnitude=math.nan)

    def test_host_fail_is_permanent(self):
        s = FaultSpec(FaultKind.HOST_FAIL, start=2.0, duration=0.1,
                      target="host-0")
        assert not s.active_at(1.9)
        assert s.active_at(1e9)

    def test_dict_roundtrip(self):
        s = FaultSpec(FaultKind.ADAPTER_SWAP_SLOW, start=2.0, duration=1.0,
                      magnitude=3.0, target="lora-1")
        assert FaultSpec.from_dict(s.to_dict()) == s


class TestFaultInjector:
    def test_targeted_and_global_swap_failures(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0, 1.0, target="lora-0"),
            FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 5.0, 1.0, target=None),
        ])
        assert inj.swap_should_fail("lora-0", 0.5)
        assert not inj.swap_should_fail("lora-1", 0.5)
        assert inj.swap_should_fail("lora-1", 5.5)  # untargeted hits all
        assert not inj.swap_should_fail("lora-0", 2.0)

    def test_slowdowns_compound(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_SLOW, 0.0, 10.0, magnitude=2.0,
                      target="gpu-0"),
            FaultSpec(FaultKind.ENGINE_SLOW, 0.0, 10.0, magnitude=3.0,
                      target="gpu-0"),
        ])
        assert inj.engine_slowdown("gpu-0", 1.0) == pytest.approx(6.0)
        assert inj.engine_slowdown("gpu-1", 1.0) == 1.0

    def test_random_schedule_is_deterministic(self):
        kwargs = dict(
            horizon_s=30.0, adapter_ids=["lora-0", "lora-1"],
            swap_fail_rate=0.5, swap_slow_rate=0.3, kv_pressure_rate=0.2,
            engine_slow_rate=0.1, engine_fail_rate=0.02,
        )
        a = FaultInjector.random(seed=7, **kwargs)
        b = FaultInjector.random(seed=7, **kwargs)
        c = FaultInjector.random(seed=8, **kwargs)
        assert a.specs == b.specs
        assert a.specs != c.specs

    def test_dicts_roundtrip(self):
        inj = FaultInjector.random(horizon_s=10.0, seed=1,
                                   adapter_ids=["lora-0"],
                                   swap_fail_rate=1.0, kv_pressure_rate=0.5)
        clone = FaultInjector.from_dicts(inj.to_dicts())
        assert clone.specs == inj.specs

    def test_gray_rates_at_zero_keep_old_seeds_identical(self):
        # The gray-failure draws must come after every legacy draw so
        # that schedules with the new rates at 0 reproduce old seeds.
        kwargs = dict(
            horizon_s=30.0, adapter_ids=["lora-0", "lora-1"],
            engine_ids=["gpu-0", "gpu-1"],
            swap_fail_rate=0.5, swap_slow_rate=0.3, kv_pressure_rate=0.2,
            engine_slow_rate=0.1, engine_fail_rate=0.02,
            load_burst_rate=0.1, scale_stall_rate=0.1,
        )
        legacy = FaultInjector.random(seed=7, **kwargs)
        explicit = FaultInjector.random(
            seed=7, partition_rate=0.0, heartbeat_loss_rate=0.0,
            host_fail_rate=0.0, host_ids=("host-0",), **kwargs)
        assert legacy.specs == explicit.specs

    def test_random_draws_gray_failure_kinds(self):
        inj = FaultInjector.random(
            horizon_s=30.0, seed=11, engine_ids=["gpu-0", "gpu-1"],
            host_ids=["host-0"], partition_rate=0.3,
            heartbeat_loss_rate=0.3, host_fail_rate=1.0,
        )
        counts = inj.counts_by_kind()
        assert counts.get("network_partition", 0) > 0
        assert counts.get("heartbeat_loss", 0) > 0
        assert counts.get("host_fail", 0) == 1

    def test_partition_and_heartbeat_queries(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.NETWORK_PARTITION, 1.0, 2.0, target="gpu-0"),
            FaultSpec(FaultKind.HEARTBEAT_LOSS, 4.0, 1.0, target="host-0"),
        ])
        assert inj.partitioned("gpu-0", 1.5)
        assert not inj.partitioned("gpu-0", 3.0)   # window closed
        assert not inj.partitioned("gpu-1", 1.5)   # wrong target
        assert inj.heartbeat_dropped("gpu-1", 4.5, host="host-0")
        assert not inj.heartbeat_dropped("gpu-1", 4.5, host="host-1")
        assert not inj.heartbeat_dropped("gpu-1", 4.5)

    def test_engine_failure_time_spans_host_faults(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 5.0, target="gpu-0"),
            FaultSpec(FaultKind.HOST_FAIL, 2.0, target="host-0"),
        ])
        assert inj.engine_failure_time("gpu-0") == 5.0
        assert inj.engine_failure_time("gpu-0", host="host-0") == 2.0
        assert inj.engine_failure_time("gpu-1", host="host-1") is None
        assert inj.engine_failed("gpu-1", 3.0, host="host-0")
        assert not inj.engine_failed("gpu-1", 1.0, host="host-0")


class TestKVReservation:
    def test_reserved_blocks_shrink_capacity(self):
        kv = PagedKVCache(num_blocks=10, block_size=16)
        kv.set_reserved(6)
        assert kv.free_blocks == 4
        assert not kv.can_allocate(5 * 16)
        assert kv.can_allocate(4 * 16)
        kv.set_reserved(0)
        assert kv.free_blocks == 10

    def test_reservation_does_not_touch_allocations(self):
        kv = PagedKVCache(num_blocks=10, block_size=16)
        kv.allocate(1, 64)
        kv.set_reserved(9)
        assert kv.free_blocks == 0
        assert kv.sequence_tokens(1) == 64
        kv.free(1)
        kv.check_invariants()


class TestEngineDegradation:
    """The two former RuntimeError crash paths now degrade gracefully."""

    def test_oversized_request_sheds_instead_of_crashing(self):
        builder = SystemBuilder(num_adapters=2, max_batch_size=4)
        engine = builder.build("v-lora")
        engine.kv = PagedKVCache(num_blocks=8, block_size=16)  # 128 tokens
        reqs = burst(builder.adapter_ids, n=3, input_tokens=1000,
                     output_tokens=4)
        engine.submit(reqs)
        metrics = engine.run()  # formerly: RuntimeError "KV cache exhausted"
        assert metrics.num_completed == 0
        assert metrics.num_aborted == 3
        assert metrics.abort_counts() == {"kv_exhausted": 3}
        assert all(r.status is RequestStatus.ABORTED for r in reqs)
        assert metrics.shed_events == 3

    def test_decode_overflow_sheds_instead_of_crashing(self):
        builder = SystemBuilder(num_adapters=1, max_batch_size=2)
        engine = builder.build("v-lora")
        # One request fits its prefill exactly but can never grow.
        engine.kv = PagedKVCache(num_blocks=2, block_size=16)
        req = Request(adapter_id="lora-0", arrival_time=0.0,
                      input_tokens=32, output_tokens=64)
        engine.submit([req])
        metrics = engine.run()  # formerly: "cannot hold even one decode step"
        assert req.status is RequestStatus.ABORTED
        assert req.abort_reason is AbortReason.KV_EXHAUSTED
        assert metrics.num_aborted == 1
        # The shed request released every block it held.
        assert engine.kv.free_blocks == engine.kv.num_blocks

    def test_transient_kv_pressure_stalls_then_recovers(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.KV_PRESSURE, 0.0, 0.2, magnitude=0.95),
        ])
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)
        engine = builder.build("v-lora")
        engine.kv = PagedKVCache(num_blocks=64, block_size=16)
        reqs = burst(builder.adapter_ids, n=4, input_tokens=128,
                     output_tokens=4)
        engine.submit(reqs)
        metrics = engine.run()
        # Pressure window is short: the engine waits it out and finishes
        # everything (stall iterations recorded, nothing aborted).
        assert metrics.num_completed == 4
        assert metrics.kv_stall_iters > 0
        assert metrics.num_aborted == 0


class TestDeadlines:
    def test_deadline_abort(self):
        builder = SystemBuilder(num_adapters=1)
        engine = builder.build("v-lora")
        ok = Request(adapter_id="lora-0", arrival_time=0.0,
                     input_tokens=64, output_tokens=2)
        doomed = Request(adapter_id="lora-0", arrival_time=0.0,
                         input_tokens=64, output_tokens=400,
                         deadline_s=0.05)
        engine.submit([ok, doomed])
        metrics = engine.run()
        assert ok.status is RequestStatus.FINISHED
        assert doomed.status is RequestStatus.ABORTED
        assert doomed.abort_reason is AbortReason.DEADLINE_EXCEEDED
        assert metrics.abort_counts() == {"deadline_exceeded": 1}

    def test_slo_factor_deadline(self):
        builder = SystemBuilder(num_adapters=1, deadline_slo_factor=2.0)
        engine = builder.build("v-lora")
        doomed = Request(adapter_id="lora-0", arrival_time=0.0,
                         input_tokens=64, output_tokens=2000, slo_s=0.05)
        engine.submit([doomed])
        metrics = engine.run()
        assert doomed.status is RequestStatus.ABORTED
        # Aborted SLO-carrying request counts as a miss, not a crash.
        assert doomed.met_slo() is False
        assert metrics.slo_attainment() == 0.0

    def test_aborted_request_has_latency(self):
        r = Request(adapter_id="a", arrival_time=1.0, input_tokens=8,
                    output_tokens=2)
        r.abort(3.0, AbortReason.DEADLINE_EXCEEDED)
        assert r.latency() == pytest.approx(2.0)
        fresh = Request(adapter_id="a", arrival_time=0.0, input_tokens=8,
                        output_tokens=2)
        with pytest.raises(RuntimeError):
            fresh.latency()
        assert fresh.met_slo() is None


class TestSwapFaults:
    def _engine(self, specs, **builder_kwargs):
        builder = SystemBuilder(
            num_adapters=4, gpu_adapter_slots=2,
            fault_injector=FaultInjector(specs), **builder_kwargs
        )
        return builder, builder.build("v-lora")

    def test_transient_swap_failure_retries_and_completes(self):
        # lora-2 / lora-3 start non-resident (2 slots) and their swaps
        # fail for a short window; backoff + retry must finish them all.
        specs = [FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0, 0.3)]
        builder, engine = self._engine(specs)
        reqs = burst(builder.adapter_ids, n=8, output_tokens=4)
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.num_completed == 8
        assert metrics.swap_retries > 0
        assert metrics.num_aborted == 0

    def test_permanent_swap_failure_quarantines_adapter(self):
        specs = [FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0, math.inf,
                           target="lora-3")]
        builder, engine = self._engine(specs)
        reqs = burst(builder.adapter_ids, n=8, output_tokens=4)
        engine.submit(reqs)
        metrics = engine.run()
        done = [r for r in reqs if r.status is RequestStatus.FINISHED]
        dead = [r for r in reqs if r.status is RequestStatus.ABORTED]
        assert len(done) == 6  # every lora-3 request aborted
        assert {r.adapter_id for r in dead} == {"lora-3"}
        assert all(r.abort_reason is AbortReason.ADAPTER_UNAVAILABLE
                   for r in dead)
        assert metrics.adapters_quarantined == 1
        assert metrics.swap_retries >= BreakerConfig().failure_threshold

    def test_quarantined_adapter_rejects_new_arrivals(self):
        specs = [FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0, math.inf,
                           target="lora-3")]
        builder, engine = self._engine(specs)
        early = burst(["lora-3"], n=2, output_tokens=64)
        late = burst(["lora-3"], n=1, arrival=30.0)
        filler = burst(["lora-0"], n=2, output_tokens=600)
        engine.submit(early + late + filler)
        engine.run()
        assert all(r.status is RequestStatus.ABORTED for r in early + late)
        # Aborted at its arrival, never before it.
        assert late[0].abort_time == late[0].arrival_time

    def test_swap_slowdown_inflates_stall(self):
        slow = [FaultSpec(FaultKind.ADAPTER_SWAP_SLOW, 0.0, math.inf,
                          magnitude=50.0)]
        reqs_args = dict(n=6, output_tokens=2)
        _, engine_slow = self._engine(slow)
        builder, engine_fast = self._engine([])
        for engine in (engine_slow, engine_fast):
            engine.submit(burst(builder.adapter_ids, **reqs_args))
        slow_m = engine_slow.run()
        fast_m = engine_fast.run()
        assert slow_m.num_completed == fast_m.num_completed == 6
        assert slow_m.mean_latency() > fast_m.mean_latency()

    def test_merged_target_failure_falls_back_to_unmerged(self):
        # All traffic on one non-resident adapter whose swap always
        # fails: nothing can run, requests abort after retries; the
        # engine must not crash and must leave merged mode.
        specs = [FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, 0.0, math.inf,
                           target="lora-3")]
        builder, engine = self._engine(specs)
        engine.submit(burst(["lora-3"], n=6, output_tokens=8))
        metrics = engine.run()
        assert metrics.num_aborted == 6
        assert engine.current_mode is not InferenceMode.MERGED


class TestEngineFailureAndFailover:
    def test_single_engine_failure_stops_cleanly(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 0.05, target="engine-0"),
        ])
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)
        engine = builder.build("v-lora")
        engine.submit(burst(builder.adapter_ids, n=10, output_tokens=200))
        metrics = engine.run()
        assert engine.failed
        assert engine.failed_at is not None
        assert metrics.engine_failures == 1

    def test_cluster_failover_requeues_to_survivor(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 0.2, target="gpu-0"),
        ])
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=2,
            dispatch="round-robin",
        )
        reqs = burst(builder.adapter_ids, n=12, output_tokens=64)
        server.submit(reqs)
        metrics = server.run()
        assert metrics.num_completed == 12
        assert metrics.num_aborted == 0
        assert metrics.failover_events > 0
        assert metrics.engine_failures == 1
        assert all(r.status is RequestStatus.FINISHED for r in reqs)

    def test_all_engines_dead_aborts_orphans(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_FAIL, 0.05, target="gpu-0"),
            FaultSpec(FaultKind.ENGINE_FAIL, 0.05, target="gpu-1"),
        ])
        builder = SystemBuilder(num_adapters=2, fault_injector=inj)
        server = MultiGPUServer.replicate(
            lambda: builder.build("v-lora"), num_gpus=2,
        )
        reqs = burst(builder.adapter_ids, n=10, output_tokens=500)
        server.submit(reqs)
        metrics = server.run()
        # Conservation: every request is terminal, none lost.
        assert metrics.num_completed + metrics.num_aborted == 10
        assert metrics.abort_counts().get("engine_failed", 0) > 0
        assert all(r.is_terminal for r in reqs)

    def test_straggler_engine_slows_but_completes(self):
        inj = FaultInjector([
            FaultSpec(FaultKind.ENGINE_SLOW, 0.0, math.inf, magnitude=5.0,
                      target="engine-0"),
        ])
        builder = SystemBuilder(num_adapters=2)
        fast = builder.build("v-lora")
        builder_slow = SystemBuilder(num_adapters=2, fault_injector=inj)
        slow = builder_slow.build("v-lora")
        for engine in (fast, slow):
            engine.submit(burst(builder.adapter_ids, n=6, output_tokens=8))
        fast_m = fast.run()
        slow_m = slow.run()
        assert slow_m.num_completed == fast_m.num_completed == 6
        assert slow_m.mean_latency() > fast_m.mean_latency()


class TestMetricsResilience:
    def test_summary_without_completions_does_not_raise(self):
        builder = SystemBuilder(num_adapters=1)
        engine = builder.build("v-lora")
        engine.kv = PagedKVCache(num_blocks=2, block_size=16)
        engine.submit(burst(["lora-0"], n=2, input_tokens=500))
        metrics = engine.run()
        summary = metrics.summary()
        assert summary["completed"] == 0.0
        assert summary["aborted"] == 2.0
        assert summary["goodput_rps"] == 0.0
        assert "avg_token_latency_ms" not in summary

    def test_goodput_charges_aborts(self):
        builder = SystemBuilder(num_adapters=1, deadline_slo_factor=1.0)
        engine = builder.build("v-lora")
        reqs = burst(["lora-0"], n=6, output_tokens=4)
        reqs[-1].output_tokens = 5000
        reqs[-1].slo_s = 0.2
        engine.submit(reqs)
        metrics = engine.run()
        assert metrics.num_aborted == 1
        assert 0 < metrics.goodput_rps() <= metrics.throughput_rps()
