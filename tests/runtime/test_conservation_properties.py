"""Request-conservation properties under randomized traces and faults.

The cluster's master invariant: **every submitted request reaches exactly
one terminal state** (FINISHED or ABORTED) — never lost, never double
counted — regardless of dispatch policy, injected faults, or replica
lifecycle churn (spawn / drain / fail mid-drain).

Hypothesis drives randomized traces through every dispatch policy ×
fault menu combination (200+ cases per full run) and through any subset
of the fleet features under random fault schedules; deterministic tests
pin down the lifecycle corners randomness can't reliably reach
(mid-drain failover, drain-requeue accounting vs. the failover budget,
hedge copies meeting on one engine).
"""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SystemBuilder
import repro.runtime.autoscaler as autoscaler_mod
import repro.runtime.placement as placement_mod
from repro.runtime import (
    AutoscaleConfig,
    Autoscaler,
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    FaultKind,
    FaultSpec,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    MultiGPUServer,
    Request,
    RequestStatus,
    reset_request_ids,
)

pytestmark = pytest.mark.property

ADAPTER_IDS = [f"lora-{i}" for i in range(3)]
DISPATCH_POLICIES = ("least-loaded", "round-robin", "adapter-affinity")

#: Named fault schedules the randomized traces run under.  ``chaos`` is
#: degraded-but-alive; ``one-dead`` forces failover; ``all-dead`` forces
#: the abort path (conservation must hold even when nothing can run).
FAULT_MENUS = {
    "none": (),
    "chaos": (
        FaultSpec(FaultKind.ADAPTER_SWAP_FAIL, start=0.0, duration=2.0,
                  target=ADAPTER_IDS[0]),
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.5, duration=2.0,
                  magnitude=3.0, target="gpu-0"),
        FaultSpec(FaultKind.KV_PRESSURE, start=1.0, duration=1.5,
                  magnitude=0.4),
    ),
    "one-dead": (
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.75, target="gpu-1"),
    ),
    "all-dead": (
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.5, target="gpu-0"),
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.9, target="gpu-1"),
    ),
}

_BUILDER = SystemBuilder(num_adapters=len(ADAPTER_IDS), max_batch_size=8,
                         deadline_slo_factor=4.0)


@st.composite
def traces(draw, max_requests=14, horizon_s=3.0):
    """A bounded random request trace (1..14 requests over ~3s)."""
    n = draw(st.integers(1, max_requests))
    reqs = []
    for _ in range(n):
        reqs.append(Request(
            adapter_id=draw(st.sampled_from(ADAPTER_IDS)),
            arrival_time=draw(st.floats(0.0, horizon_s)),
            input_tokens=draw(st.integers(1, 256)),
            output_tokens=draw(st.integers(1, 16)),
            use_task_head=False,
            slo_s=draw(st.sampled_from([None, 2.0, 8.0])),
        ))
    return reqs


def assert_exactly_once_terminal(requests, metrics):
    """Every request terminal exactly once; metrics agree with statuses."""
    finished = [r for r in requests if r.status is RequestStatus.FINISHED]
    aborted = [r for r in requests if r.status is RequestStatus.ABORTED]
    # Terminal, and no request in both camps (statuses are exclusive).
    assert len(finished) + len(aborted) == len(requests)
    # Metrics saw each terminal exactly once.
    assert metrics.num_completed == len(finished)
    assert metrics.num_aborted == len(aborted)
    rec_ids = [rec.request_id for rec in metrics.records]
    abort_ids = [ab.request_id for ab in metrics.aborts]
    assert len(set(rec_ids)) == len(rec_ids), "double-completed request"
    assert len(set(abort_ids)) == len(abort_ids), "double-aborted request"
    assert not set(rec_ids) & set(abort_ids), "completed AND aborted"
    assert set(rec_ids) | set(abort_ids) == {r.request_id for r in requests}
    # Latency sanity on the completions.
    for rec in metrics.records:
        assert rec.finish_time >= rec.arrival_time
        assert math.isfinite(rec.latency) and rec.latency >= 0.0


def _fast_scale_up():
    """The chaos suites scale up every control epoch they need to."""
    return mock.patch.object(autoscaler_mod, "UP_COOLDOWN_S", 0.25)


def _fresh_cluster(dispatch, faults, num_gpus=2, **kwargs):
    injector = FaultInjector(list(faults)) if faults else None
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    return MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), num_gpus, dispatch=dispatch,
        **kwargs,
    )


@pytest.mark.parametrize("dispatch", DISPATCH_POLICIES)
@pytest.mark.parametrize("menu", sorted(FAULT_MENUS))
@settings(max_examples=18, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces())
def test_static_cluster_exactly_once(dispatch, menu, requests):
    """3 policies × 4 fault menus × 18 examples = 216 randomized cases."""
    reset_request_ids()
    server = _fresh_cluster(dispatch, FAULT_MENUS[menu], max_requeues=4)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    # Nothing may be left in flight on any surviving engine.
    assert all(e.num_live == 0 for e in server.engines)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces(), seed=st.integers(0, 31))
def test_autoscaled_cluster_exactly_once_under_chaos(requests, seed):
    """Randomized faults (incl. engine deaths and scale stalls) during
    lifecycle churn must never lose or duplicate a request."""
    reset_request_ids()
    injector = FaultInjector.random(
        horizon_s=20.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1", "gpu-2"),
        swap_fail_rate=0.3, engine_slow_rate=0.2,
        engine_fail_rate=0.05, scale_stall_rate=0.2,
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=3, interval_s=0.25,
        target_queue_per_replica=2.0, down_fraction=0.7,
        down_cooldown_s=0.5, spinup_s=0.1, drain_timeout_s=2.0,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 1, autoscaler=scaler,
    )
    server.submit(requests)
    with _fast_scale_up():
        metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    # GPU-seconds accounting covers every replica that ever existed:
    # one initial replica plus every spawn, each with a finite lifetime.
    assert metrics.replicas_spawned == len(server.replicas) - 1
    assert metrics.gpu_seconds_total > 0.0


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces(), seed=st.integers(0, 31))
def test_detector_cluster_exactly_once_under_partition_storm(requests, seed):
    """Gray failures everywhere — partitions, heartbeat loss, correlated
    host deaths, true engine deaths — with an aggressive detector that
    confirms quickly (maximizing false confirmations and zombie replay).
    Exactly-once must survive: every stale completion a zombie replays
    is fenced, never double-terminating a request."""
    reset_request_ids()
    injector = FaultInjector.random(
        horizon_s=20.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1"), host_ids=("host-0", "host-1"),
        partition_rate=0.3, heartbeat_loss_rate=0.2,
        engine_fail_rate=0.05, host_fail_rate=0.03, engine_slow_rate=0.1,
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    detector = FailureDetector(FailureDetectorConfig(
        phi_suspect=1.0, phi_confirm=3.0))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, detector=detector,
        num_hosts=2, max_requeues=4,
    )
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    # Zombie outboxes were fully reconciled: every withheld result was
    # either accepted once or fenced, never left pending.
    for rep in server.replicas:
        assert rep.engine.completion_outbox == []
    assert not server._zombie_mail


def _long_requests(n, output_tokens=192, arrival=0.0):
    return [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=arrival, input_tokens=64,
                output_tokens=output_tokens, use_task_head=False)
        for i in range(n)
    ]


def test_mid_drain_failover_exactly_once():
    """A replica that dies *while draining* must hand its in-flight work
    back through failover, and the cluster must heal and finish it."""
    faults = (
        FaultSpec(FaultKind.ENGINE_FAIL, start=2.0, target="gpu-0"),
        FaultSpec(FaultKind.ENGINE_FAIL, start=2.0, target="gpu-1"),
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        fault_injector=FaultInjector(list(faults)),
    )
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=2, interval_s=0.25,
        # Huge target: the controller immediately wants to scale down,
        # so one of the two initial replicas starts draining while its
        # long-running batch is still in flight.
        target_queue_per_replica=100.0, down_fraction=0.9,
        down_cooldown_s=0.25, spinup_s=0.1, drain_timeout_s=30.0,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, autoscaler=scaler,
    )
    requests = _long_requests(12)
    server.submit(requests)
    metrics = server.run()

    assert_exactly_once_terminal(requests, metrics)
    # The scenario actually happened: a drain began, then both initial
    # replicas (including the draining one) died and work was re-homed.
    assert metrics.scale_down_events >= 1, "no drain ever started"
    actions = [ev.action for ev in metrics.scale_events]
    assert "fail" in actions, "no replica failed"
    # The cluster healed: fresh replicas finished the orphaned work.
    assert metrics.num_completed > 0
    assert metrics.replicas_spawned >= 1


def test_drain_requeue_does_not_consume_failover_budget():
    """Regression: re-homing during a drain timeout is bookkept as a
    ``drain_hop``, never as a failover ``requeue`` — so it must neither
    burn the ``max_requeues`` budget nor add failover backoff."""
    builder = SystemBuilder(num_adapters=len(ADAPTER_IDS), max_batch_size=8)
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=2, interval_s=0.25,
        target_queue_per_replica=100.0, down_fraction=0.9,
        down_cooldown_s=0.25, spinup_s=0.1,
        # Tiny timeout: the drain cannot finish its long batch in time,
        # so the orphans are forcibly re-homed through the requeue path.
        drain_timeout_s=0.5,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, autoscaler=scaler,
        # Tightest allowed failover budget plus a large backoff: any
        # accidental use of the failover accounting for drain re-homing
        # shows up as nonzero ``requeues`` (and aborts on a second hop).
        max_requeues=1, requeue_backoff_s=1.0,
    )
    requests = _long_requests(12)
    server.submit(requests)
    metrics = server.run()

    assert_exactly_once_terminal(requests, metrics)
    assert metrics.drain_timeouts >= 1, "drain never timed out"
    assert metrics.drain_requeues >= 1, "nothing was re-homed"
    # Nothing aborted: the zero failover budget was never touched.
    assert metrics.num_aborted == 0
    rehomed = [r for r in requests if r.drain_hops > 0]
    assert rehomed, "no request recorded a drain hop"
    for r in rehomed:
        assert r.requeues == 0, "drain re-home consumed failover budget"


# -- tail-tolerant dispatch (PR 8: hedging / retry budgets) -------------------


@pytest.mark.parametrize("menu", sorted(FAULT_MENUS))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces())
def test_hedged_cluster_exactly_once(menu, requests):
    """Exactly-once must survive hedged dispatch under every fault menu:
    two live copies race to a terminal, and the loser is always fenced —
    never a duplicate, never a lost request."""
    from repro.runtime import HedgeConfig, RetryBudget, TimeoutPolicy

    reset_request_ids()
    server = _fresh_cluster(
        "least-loaded", FAULT_MENUS[menu], max_requeues=4,
        hedge=HedgeConfig(min_observations=4, window=32),
        retry_budget=RetryBudget(),
        timeout_policy=TimeoutPolicy(hedge_after_s=0.25),
    )
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    # Every race that was started has exactly one fenced loser.
    assert metrics.hedge_losses == metrics.hedges_fired
    assert metrics.hedge_wins <= metrics.hedges_fired
    assert server._undispatched == []


def test_hedge_during_partition_heal_fenced_exactly_once():
    """A hedge fired against a partitioned straggler: the twin wins, the
    partition heals, and the original's late terminal must fence as a
    hedge loss — exactly once, never a duplicate terminal."""
    from repro.runtime import HedgeConfig, TimeoutPolicy

    reset_request_ids()
    faults = (
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.0, duration=10.0,
                  magnitude=10.0, target="gpu-0"),
        # The straggler is also partitioned: its completions buffer in
        # the outbox until the window closes.
        FaultSpec(FaultKind.NETWORK_PARTITION, start=0.2, duration=2.0,
                  target="gpu-0"),
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        fault_injector=FaultInjector(list(faults)),
    )
    # Detector thresholds far out of reach: the partitioned replica is
    # never suspected, so its work is hedged rather than seized.
    detector = FailureDetector(FailureDetectorConfig(
        phi_suspect=1e6, phi_confirm=1e7))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, detector=detector,
        hedge=HedgeConfig(min_observations=4, window=32),
        timeout_policy=TimeoutPolicy(hedge_after_s=0.3),
    )
    requests = [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=i * 0.01, input_tokens=64, output_tokens=8)
        for i in range(16)
    ]
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert metrics.hedges_fired >= 1, "no hedge fired at the straggler"
    assert metrics.hedge_wins >= 1, "no twin beat the partitioned host"
    assert metrics.hedge_losses == metrics.hedges_fired
    # The partition healed and every buffered terminal was reconciled.
    for rep in server.replicas:
        assert rep.engine.completion_outbox == []
    assert not server._zombie_mail


@pytest.mark.parametrize("menu", sorted(FAULT_MENUS))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces())
def test_locality_cluster_exactly_once(menu, requests):
    """Exactly-once must survive cache-state-aware placement under every
    fault menu: spills, replication pins, prefetches, and stale registry
    entries (a decision made on a dead replica's behalf re-homes through
    the ordinary failover machinery, never losing a request)."""
    from repro.runtime import AdapterPlacement, PlacementConfig

    reset_request_ids()
    placement = AdapterPlacement(PlacementConfig(
        hot_watermark=0.2, hot_copies=2, cold_watermark=0.05,
        interval_s=0.25,
    ))
    server = _fresh_cluster("locality", FAULT_MENUS[menu],
                            max_requeues=4, placement=placement)
    server.submit(requests)
    # A hair-trigger spill bar: spills on almost every dispatch.
    with mock.patch.object(placement_mod, "SPILL_LOAD_FACTOR", 1.0), \
            mock.patch.object(placement_mod, "SPILL_SLACK_ROUNDS", 2.0):
        metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces(), seed=st.integers(0, 31))
def test_locality_autoscaled_exactly_once_under_chaos(requests, seed):
    """Locality placement + lifecycle churn + randomized faults: replica
    registration/deregistration, warm-up prefetch, and drain bias must
    never lose or duplicate a request."""
    from repro.runtime import AdapterPlacement, PlacementConfig

    reset_request_ids()
    injector = FaultInjector.random(
        horizon_s=20.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1", "gpu-2"),
        swap_fail_rate=0.3, engine_slow_rate=0.2,
        engine_fail_rate=0.05, scale_stall_rate=0.2,
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=3, interval_s=0.25,
        target_queue_per_replica=2.0, down_fraction=0.7,
        down_cooldown_s=0.5, spinup_s=0.1, drain_timeout_s=2.0,
    ))
    placement = AdapterPlacement(PlacementConfig(
        hot_watermark=0.2, hot_copies=2, interval_s=0.25,
        prefetch_top_k=2,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 1, dispatch="locality",
        autoscaler=scaler, placement=placement,
    )
    server.submit(requests)
    with _fast_scale_up():
        metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    assert metrics.replicas_spawned == len(server.replicas) - 1


# -- disaggregated prefill/decode serving (docs/DISAGGREGATION.md) ------------


def _disagg_cluster(faults=(), prefill=1, decode=1, **kwargs):
    from repro.runtime import DisaggConfig

    injector = FaultInjector(list(faults)) if faults else None
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    disagg = DisaggConfig(prefill_replicas=prefill, decode_replicas=decode)
    return MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), prefill + decode,
        disagg=disagg, **kwargs,
    )


@pytest.mark.parametrize("menu", sorted(FAULT_MENUS))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces())
def test_disagg_cluster_exactly_once(menu, requests):
    """Exactly-once must survive the pool boundary under every fault
    menu — gpu-0 is the prefill pool and gpu-1 the decode pool, so
    ``one-dead`` kills the decode side (transferred requests rewind and
    re-prefill) and ``all-dead`` forces the abort path."""
    reset_request_ids()
    server = _disagg_cluster(FAULT_MENUS[menu], max_requeues=4)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    for rep in server.replicas:
        assert rep.engine.handoff_outbox == []
        assert rep.engine.num_live == 0 or rep.engine.failed


def test_disagg_decode_pool_short_of_kv_exactly_once():
    """A decode replica short of KV preempts, and falls back to its
    running subset, only among requests that hold local KV: a
    transferred-in hand-off is prefilled but holds none until it is
    admitted.  Both paths once freed or appended to a sequence the
    replica never allocated."""
    from repro.hardware.gpu import A100_80GB
    from repro.runtime import DisaggConfig
    from repro.workloads import RetrievalWorkload

    small = dataclasses.replace(A100_80GB, name="A100-21GB",
                                hbm_capacity_gb=21.0)
    builder = SystemBuilder(num_adapters=4, gpu_adapter_slots=2,
                            max_batch_size=16, gpu=small)
    reset_request_ids()
    requests = RetrievalWorkload(builder.adapter_ids, rate_rps=8.0,
                                 duration_s=4.0, seed=0).generate()
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2,
        disagg=DisaggConfig(prefill_replicas=1, decode_replicas=1),
    )
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert metrics.num_preemptions > 0
    for rep in server.replicas:
        rep.engine.kv.check_invariants()


def test_disagg_prefill_death_mid_transfer_exactly_once():
    """The prefill replica dies with hand-offs still in its outbox: its
    KV died with it, so the outbox rewinds through failover — and with
    no prefill pool left and nothing to spawn, the survivors abort the
    rest.  Exactly one terminal either way."""
    faults = (
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.15, target="gpu-0"),
    )
    reset_request_ids()
    server = _disagg_cluster(faults, max_requeues=4)
    # Staggered arrivals keep the prefill replica busy past its death
    # time, so it dies with finished prefills still in its outbox
    # (transfers only leave at epoch boundaries).
    requests = [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=i * 0.04, input_tokens=64,
                output_tokens=64, use_task_head=False)
        for i in range(10)
    ]
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    # The death actually happened, with the outbox rewound through
    # failover; with no prefill pool left and nothing to spawn, the
    # survivors aborted whatever could no longer prefill.
    assert metrics.engine_failures >= 1
    assert metrics.num_aborted >= 1
    assert server._undispatched == []


def test_disagg_decode_death_mid_transfer_rehomes_exactly_once():
    """The decode replica dies while transferred requests are in flight
    toward it (and resident on it): they rewind to un-prefilled, rejoin
    the queue, and — with no decode pool left — run to completion on the
    prefill replica's local decode path, exactly once."""
    faults = (
        FaultSpec(FaultKind.ENGINE_FAIL, start=0.2, target="gpu-1"),
    )
    reset_request_ids()
    server = _disagg_cluster(faults, max_requeues=4)
    requests = _long_requests(10, output_tokens=64)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    # The boundary was actually exercised before the death.
    assert server.cluster_metrics.kv_transfers >= 1


def test_disagg_partition_during_handoff_waits_for_heal():
    """A partitioned prefill replica's outbox must *wait* — the KV is
    intact, the pool just cannot reach it — and deliver on heal, never
    duplicating the hand-off."""
    faults = (
        FaultSpec(FaultKind.NETWORK_PARTITION, start=0.0, duration=1.5,
                  target="gpu-0"),
    )
    reset_request_ids()
    detector = FailureDetector(FailureDetectorConfig(
        phi_suspect=1e6, phi_confirm=1e7))
    server = _disagg_cluster(faults, detector=detector, max_requeues=4)
    requests = _long_requests(8, output_tokens=32)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert metrics.num_aborted == 0, "heal should rescue every hand-off"
    assert server.cluster_metrics.kv_transfers >= 1
    for rep in server.replicas:
        assert rep.engine.handoff_outbox == []


def test_disagg_hedged_twin_racing_transfer_exactly_once():
    """A hedge fired while the original crosses the pool boundary: the
    twin re-enters through the prefill pool, both copies race through
    prefill -> transfer -> decode, and exactly one terminal survives."""
    from repro.runtime import HedgeConfig, TimeoutPolicy

    faults = (
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.0, duration=10.0,
                  magnitude=8.0, target="gpu-1"),
    )
    reset_request_ids()
    server = _disagg_cluster(
        faults, prefill=1, decode=2,
        hedge=HedgeConfig(min_observations=4, window=32),
        timeout_policy=TimeoutPolicy(hedge_after_s=0.2),
    )
    requests = [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=i * 0.01, input_tokens=64, output_tokens=12)
        for i in range(16)
    ]
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert metrics.hedges_fired >= 1, "no hedge fired at the straggler"
    assert metrics.hedge_losses == metrics.hedges_fired
    assert server.cluster_metrics.kv_transfers >= len(requests)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=traces(), seed=st.integers(0, 31))
def test_disagg_autoscaled_exactly_once_under_chaos(requests, seed):
    """Per-pool autoscaling (queue-depth prefill, KV-residency decode)
    plus randomized faults: lifecycle churn on either side of the
    boundary must never lose or duplicate a request."""
    from repro.runtime import DisaggConfig

    reset_request_ids()
    injector = FaultInjector.random(
        horizon_s=20.0, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=("gpu-0", "gpu-1", "gpu-2"),
        swap_fail_rate=0.3, engine_slow_rate=0.2,
        engine_fail_rate=0.05, scale_stall_rate=0.2,
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        deadline_slo_factor=4.0, fault_injector=injector,
    )
    scale = AutoscaleConfig(
        min_replicas=1, max_replicas=2, interval_s=0.25,
        target_queue_per_replica=2.0, down_fraction=0.7,
        down_cooldown_s=0.5, spinup_s=0.1, drain_timeout_s=2.0,
    )
    disagg = DisaggConfig(
        prefill_replicas=1, decode_replicas=1,
        prefill_autoscale=scale,
        decode_autoscale=dataclasses.replace(scale, target_utilization=0.6),
    )
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, disagg=disagg,
    )
    server.submit(requests)
    with _fast_scale_up():
        metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []


def test_drain_rehoming_never_spends_retry_budget():
    """Voluntary scale-down churn is not a retry: drain re-homes must
    neither charge the failover budget nor buy retry-budget tokens."""
    from repro.runtime import RetryBudget, RetryBudgetConfig

    budget = RetryBudget(RetryBudgetConfig(ratio=0.1, burst=5.0,
                                           initial=5.0))
    builder = SystemBuilder(num_adapters=len(ADAPTER_IDS), max_batch_size=8)
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=2, interval_s=0.25,
        target_queue_per_replica=100.0, down_fraction=0.9,
        down_cooldown_s=0.25, spinup_s=0.1, drain_timeout_s=0.5,
    ))
    server = MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), 2, autoscaler=scaler,
        max_requeues=1, retry_budget=budget,
    )
    requests = _long_requests(12)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert metrics.drain_requeues >= 1, "nothing was re-homed"
    assert budget.spent == 0, "drain re-home spent retry-budget tokens"
    assert budget.exhausted == 0
    assert metrics.num_aborted == 0


# -- all-features fuzz: any subset of the fleet features ----------------------

#: Every feature a cluster can switch on; the fuzz draws any subset.
FEATURES = ("admission", "brownout", "breaker", "retry_budget", "hedge",
            "detector", "locality", "disagg", "autoscale")
FAULT_RATES = ("swap_fail_rate", "swap_slow_rate", "kv_pressure_rate",
               "engine_slow_rate", "engine_fail_rate", "scale_stall_rate",
               "partition_rate", "heartbeat_loss_rate", "host_fail_rate")


@st.composite
def fleets(draw, max_requests=14, horizon_s=3.0):
    """(features, pool sizes, fault rates, fault seed, trace) of one run.

    A disaggregated fleet has a prefill and a decode pool (and scales
    per pool); any other fleet is one pool, of at least two replicas
    when hedging or locality needs a second one to route to.
    """
    features = draw(st.sets(st.sampled_from(FEATURES)))
    if "disagg" in features:
        pools = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    else:
        low = 2 if features & {"hedge", "locality"} else 1
        pools = (draw(st.integers(low, 3)),)
    rates = {k: draw(st.sampled_from((0.0, 0.05, 0.2))) for k in FAULT_RATES}
    seed = draw(st.integers(0, 31))
    requests = draw(traces(max_requests, horizon_s))
    for r in requests:
        r.priority = draw(st.sampled_from(
            (PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH)))
    return features, pools, rates, seed, requests


def _fuzz_cluster(features, pools, rates, seed, horizon_s):
    from repro.runtime import (
        AdapterPlacement,
        AdmissionConfig,
        BreakerConfig,
        BrownoutConfig,
        DisaggConfig,
        HedgeConfig,
        PlacementConfig,
        RetryBudget,
        TimeoutPolicy,
    )

    num_hosts = 2 if rates["host_fail_rate"] else 0
    injector = FaultInjector.random(
        horizon_s=4 * horizon_s, seed=seed, adapter_ids=ADAPTER_IDS,
        engine_ids=tuple(f"gpu-{i}" for i in range(6)),
        host_ids=tuple(f"host-{i}" for i in range(num_hosts)), **rates,
    )
    builder = SystemBuilder(
        num_adapters=len(ADAPTER_IDS), max_batch_size=8,
        gpu_adapter_slots=2, deadline_slo_factor=4.0,
        fault_injector=injector,
        admission=(AdmissionConfig(max_queue_depth=6,
                                   rate_tokens_per_s=4000.0)
                   if "admission" in features else None),
        brownout=(BrownoutConfig(queue_high=4)
                  if "brownout" in features else None),
        breaker=(BreakerConfig(failure_threshold=2, cooldown_s=0.3)
                 if "breaker" in features else None),
    )
    kwargs = dict(max_requeues=4, num_hosts=num_hosts)
    scale = None
    if "autoscale" in features:
        scale = AutoscaleConfig(
            min_replicas=1, max_replicas=3, interval_s=0.25,
            target_queue_per_replica=2.0, down_fraction=0.7,
            down_cooldown_s=0.5, spinup_s=0.1, drain_timeout_s=2.0,
        )
    if "disagg" in features:
        kwargs["disagg"] = DisaggConfig(
            prefill_replicas=pools[0], decode_replicas=pools[1],
            prefill_autoscale=scale,
            decode_autoscale=(
                dataclasses.replace(scale, target_utilization=0.6)
                if scale is not None else None),
        )
    elif scale is not None:
        kwargs["autoscaler"] = Autoscaler(scale)
    if "retry_budget" in features:
        kwargs["retry_budget"] = RetryBudget()
    if "hedge" in features:
        kwargs["hedge"] = HedgeConfig(min_observations=4, window=32)
        kwargs["timeout_policy"] = TimeoutPolicy(hedge_after_s=0.25)
    if "detector" in features:
        kwargs["detector"] = FailureDetector(FailureDetectorConfig(
            phi_suspect=1.0, phi_confirm=3.0))
    dispatch = "least-loaded"
    if "locality" in features:
        dispatch = "locality"
        kwargs["placement"] = AdapterPlacement(PlacementConfig(
            hot_watermark=0.2, hot_copies=2, interval_s=0.25,
            prefetch_top_k=2,
        ))
    return MultiGPUServer.replicate(
        lambda: builder.build("v-lora"), sum(pools), dispatch=dispatch,
        **kwargs,
    )


def _check_fleet_run(fleet, horizon_s):
    features, pools, rates, seed, requests = fleet
    reset_request_ids()
    server = _fuzz_cluster(features, pools, rates, seed, horizon_s)
    server.submit(requests)
    metrics = server.run()
    assert_exactly_once_terminal(requests, metrics)
    assert server._undispatched == []
    for rep in server.replicas:
        rep.engine.kv.check_invariants()
    for rec in metrics.records:
        assert rec.arrival_time <= rec.first_token_time
        assert rec.arrival_time <= rec.finish_time
        if "disagg" not in features:
            # Known defect, pinned by the strict xfail
            # test_disagg_decode_never_finishes_before_first_token.
            assert rec.first_token_time <= rec.finish_time
    for ab in metrics.aborts:
        assert ab.arrival_time <= ab.abort_time


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fleet=fleets())
def test_any_feature_subset_exactly_once(fleet):
    """Any subset of the nine fleet features under any random fault
    schedule: one terminal per request, KV blocks conserved on every
    engine, and arrival <= first token <= finish (or abort)."""
    _check_fleet_run(fleet, horizon_s=3.0)


@pytest.mark.slow
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fleet=fleets(max_requests=48, horizon_s=10.0))
def test_any_feature_subset_exactly_once_long_trace(fleet):
    """The same property over longer traces: more lifecycle churn, more
    requeues, and fault windows that overlap the whole run."""
    _check_fleet_run(fleet, horizon_s=10.0)


# -- what the fuzz found ------------------------------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "known defect: a hand-off leaves the prefill replica at the epoch "
    "boundary even when its prefill iteration ran past it; the fix moves "
    "the disagg golden digest"))
def test_disagg_decode_never_finishes_before_first_token():
    """The decode replica must not start a hand-off before the prefill
    that produced its first token has finished."""
    reset_request_ids()
    server = _disagg_cluster()
    # Arrives on an epoch boundary: its prefill runs past that boundary.
    requests = [Request(adapter_id=ADAPTER_IDS[0], arrival_time=1.0,
                        input_tokens=1, output_tokens=2,
                        use_task_head=False)]
    server.submit(requests)
    (rec,) = server.run().records
    assert rec.first_token_time <= rec.finish_time


def test_hedge_copies_never_share_an_engine():
    """An engine keys live requests by id, so a twin whose only decode
    target runs its original waits in the prefill outbox until the
    original settles, instead of replacing it there (which lost the
    original's terminal, or the whole request once the twin's host
    died)."""
    from repro.runtime import HedgeConfig, TimeoutPolicy

    faults = (
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.0, duration=10.0,
                  magnitude=8.0, target="gpu-1"),
    )
    reset_request_ids()
    # One slow decode replica: every twin re-prefills on gpu-0 and its
    # only decode target is the replica running its original.
    server = _disagg_cluster(
        faults, prefill=1, decode=1,
        hedge=HedgeConfig(min_observations=4, window=32),
        timeout_policy=TimeoutPolicy(hedge_after_s=0.2),
    )
    requests = [
        Request(adapter_id=ADAPTER_IDS[i % len(ADAPTER_IDS)],
                arrival_time=i * 0.01, input_tokens=64, output_tokens=12)
        for i in range(16)
    ]
    server.submit(requests)
    metrics = server.run()
    assert metrics.hedges_fired >= 1
    assert metrics.hedge_losses == metrics.hedges_fired
    assert_exactly_once_terminal(requests, metrics)


def test_requeued_original_never_joins_its_twin():
    """An original orphaned off a dead straggler while its twin runs on
    the only survivor waits in the queue for the twin to settle (joining
    it there allocated the same KV sequence twice and crashed)."""
    from repro.runtime import HedgeConfig, TimeoutPolicy

    faults = (
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.0, duration=10.0,
                  magnitude=10.0, target="gpu-0"),
        FaultSpec(FaultKind.ENGINE_FAIL, start=1.0, target="gpu-0"),
    )
    reset_request_ids()
    server = _fresh_cluster(
        "least-loaded", faults,
        hedge=HedgeConfig(min_observations=4, window=32),
        timeout_policy=TimeoutPolicy(hedge_after_s=0.2),
    )
    requests = _long_requests(16, output_tokens=64)
    server.submit(requests)
    metrics = server.run()
    assert metrics.hedges_fired >= 1
    assert metrics.failover_events >= 1
    assert metrics.hedge_losses == metrics.hedges_fired
    assert_exactly_once_terminal(requests, metrics)


def test_cluster_abort_fences_the_running_twin():
    """An original orphaned off a dead straggler that the cluster aborts
    (here: the retry budget is spent) while its twin still runs on the
    survivor is the request's one terminal; the twin's later finish is
    a lost race (it used to be recorded as a second terminal)."""
    from repro.runtime import (
        HedgeConfig,
        RetryBudget,
        RetryBudgetConfig,
        TimeoutPolicy,
    )

    faults = (
        FaultSpec(FaultKind.ENGINE_SLOW, start=0.0, duration=10.0,
                  magnitude=10.0, target="gpu-0"),
        FaultSpec(FaultKind.ENGINE_FAIL, start=1.0, target="gpu-0"),
    )
    reset_request_ids()
    server = _fresh_cluster(
        "least-loaded", faults,
        hedge=HedgeConfig(min_observations=4, window=32),
        timeout_policy=TimeoutPolicy(hedge_after_s=0.2),
        retry_budget=RetryBudget(RetryBudgetConfig(initial=5.0,
                                                   ratio=0.01)),
    )
    requests = _long_requests(16, output_tokens=64)
    server.submit(requests)
    metrics = server.run()
    assert metrics.hedges_fired >= 1
    assert metrics.retry_budget_exhausted >= 1
    assert metrics.hedge_losses == metrics.hedges_fired
    assert_exactly_once_terminal(requests, metrics)
