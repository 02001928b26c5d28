"""The SoA core is the object core, bit for bit.

``SoAServingEngine`` re-implements the serving loop over parallel
arrays; its contract is *bit-identical* results — the same completed
and aborted request sets, the same terminal metrics floats, the same
golden seed-0 trace digest — for every supported configuration.  These
tests pin that contract:

* a hypothesis property test drives both cores over arbitrary bounded
  retrieval mixes and compares full digests;
* targeted unit tests cover the masked deadline-expiry pass and the
  KV-pressure shed/preemption pass (the two passes that abort or
  reorder work wholesale, where a vectorization bug would show up as a
  silently different victim set);
* the golden seed-0 snapshot from ``test_determinism`` must be
  reproduced by the SoA core, not just by the engine that wrote it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SystemBuilder
from repro.hardware.gpu import A100_80GB
from repro.runtime import FaultInjector, reset_request_ids
from repro.runtime.engine import ServingEngine
from repro.runtime.overload import AdmissionConfig
from repro.runtime.request import AbortReason
from repro.runtime.soa_core import SoAServingEngine
from repro.workloads import RetrievalWorkload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "determinism.json")

#: Just small enough that Qwen-VL-7B fits but the KV pool is starved,
#: forcing the shed/preemption pass to run (see test_kv_shed_pass).
SMALL_GPU = dataclasses.replace(A100_80GB, name="A100-21GB",
                                hbm_capacity_gb=21.0)


def _digest(metrics):
    """Order-free, cache-counter-free comparable form of a run."""
    summary = dict(metrics.summary())
    # The two cores memoize differently (signature table vs component
    # memos); the *costs* must match bit for bit, the hit counters
    # legitimately differ.
    summary.pop("cost_cache_hits", None)
    summary.pop("cost_cache_misses", None)
    records = sorted(
        (dataclasses.astuple(r) for r in metrics.records),
        key=lambda t: t[0],
    )
    aborts = sorted(
        (dataclasses.astuple(a) for a in metrics.aborts),
        key=lambda t: t[0],
    )
    return summary, records, aborts


def _run(system, builder_kw, wl_kw, core):
    builder = SystemBuilder(**builder_kw)
    reset_request_ids()
    requests = RetrievalWorkload(builder.adapter_ids, **wl_kw).generate()
    engine = builder.build(system, core=core)
    engine.submit(requests)
    metrics = engine.run()
    return engine, _digest(metrics)


def _both(system, builder_kw, wl_kw):
    _, obj = _run(system, builder_kw, wl_kw, "object")
    soa_engine, soa = _run(system, builder_kw, wl_kw, "soa")
    return obj, soa, soa_engine


# -- property equivalence -----------------------------------------------------


@pytest.mark.property
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    system=st.sampled_from(["v-lora", "s-lora", "punica", "dlora",
                            "merge-only", "unmerge-only"]),
    rate=st.sampled_from([4.0, 8.0, 14.0]),
    task_heads=st.booleans(),
)
def test_cores_equivalent(seed, system, rate, task_heads):
    builder_kw = dict(num_adapters=4)
    wl_kw = dict(rate_rps=rate, duration_s=12.0, seed=seed,
                 use_task_heads=task_heads)
    obj, soa, _ = _both(system, builder_kw, wl_kw)
    assert obj == soa


# -- golden seed-0 digest -----------------------------------------------------


def _trace_digest(metrics) -> str:
    # Mirrors test_determinism._trace_digest (kept in sync by the
    # golden comparison itself: a drift here fails the assert below).
    rows = sorted(
        [("done", r.request_id, r.adapter_id, r.arrival_time,
          r.first_token_time, r.finish_time) for r in metrics.records]
        + [("abort", a.request_id, a.adapter_id, a.arrival_time,
            a.abort_time, a.reason) for a in metrics.aborts]
    )
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_soa_reproduces_golden_seed0():
    """The checked-in seed-0 snapshot, regenerated through the SoA core."""
    with open(GOLDEN_PATH) as fh:
        golden = dict(json.load(fh)["engine"])
    builder = SystemBuilder(num_adapters=4, max_batch_size=8)
    reset_request_ids()
    requests = RetrievalWorkload(
        adapter_ids=[f"lora-{i}" for i in range(4)], rate_rps=14.0,
        duration_s=2.0, use_task_heads=False, slo_s=4.0, seed=0,
    ).generate()
    engine = builder.build("v-lora", core="soa")
    engine.submit(requests)
    metrics = engine.run()
    fresh = json.loads(json.dumps(
        {**metrics.summary(), "trace_digest": _trace_digest(metrics)}))
    for fp in (golden, fresh):
        fp.pop("cost_cache_hits", None)
        fp.pop("cost_cache_misses", None)
    assert fresh == golden


# -- masked deadline-expiry pass ---------------------------------------------


def test_deadline_expiry_pass():
    builder_kw = dict(num_adapters=4, deadline_slo_factor=1.2)
    wl_kw = dict(rate_rps=12.0, duration_s=30.0, slo_s=2.0, seed=6)
    obj, soa, engine = _both("v-lora", builder_kw, wl_kw)
    assert obj == soa
    _, _, aborts = soa
    # The scenario is tuned to actually overrun deadlines; a vacuous
    # pass would make this test meaningless.
    assert len(aborts) > 100
    reasons = {a[5] for a in aborts}  # AbortRecord.reason
    assert reasons == {AbortReason.DEADLINE_EXCEEDED.value}


def test_deadline_expiry_respects_deadlines():
    builder = SystemBuilder(num_adapters=4, deadline_slo_factor=1.2)
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=12.0, duration_s=30.0,
        slo_s=2.0, seed=6).generate()
    deadline_of = {}
    for r in requests:
        deadline_of[r.request_id] = r.arrival_time + 1.2 * r.slo_s
    engine = builder.build("v-lora", core="soa")
    engine.submit(requests)
    metrics = engine.run()
    assert metrics.aborts
    for a in metrics.aborts:
        # Expiry may only fire once the clock passes the deadline.
        assert a.abort_time >= deadline_of[a.request_id]


# -- KV-pressure shed pass ----------------------------------------------------


def test_kv_shed_pass():
    builder_kw = dict(num_adapters=4, gpu=SMALL_GPU)
    wl_kw = dict(rate_rps=16.0, duration_s=30.0, seed=7)
    obj, soa, engine = _both("v-lora", builder_kw, wl_kw)
    assert obj == soa
    summary = soa[0]
    assert summary["preemptions"] > 0
    engine.check_kv_invariants()


def test_kv_invariants_hold_every_step():
    builder = SystemBuilder(num_adapters=4, gpu=SMALL_GPU)
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=16.0, duration_s=10.0,
        seed=7).generate()
    engine = builder.build("v-lora", core="soa")
    engine.submit(requests)
    for _ in range(50_000):
        before = engine.clock.now
        engine.step()
        engine.check_kv_invariants()
        assert engine.clock.now >= before
        # run()'s own termination condition: arrivals drained and no
        # active work (cached prefix entries may still hold blocks —
        # that's what check_kv_invariants accounts for above).
        if engine._pend_pos >= engine._pend_n and not engine._n_active:
            break
    else:
        pytest.fail("engine did not drain")
    assert engine.metrics.num_preemptions > 0


# -- unsupported configurations ----------------------------------------------


def test_fault_injection_unsupported():
    builder = SystemBuilder(num_adapters=2,
                            fault_injector=FaultInjector([]))
    with pytest.raises(ValueError, match="fault injection"):
        builder.build("v-lora", core="soa")


def test_overload_protection_unsupported():
    builder = SystemBuilder(num_adapters=2, admission=AdmissionConfig())
    with pytest.raises(ValueError, match="overload"):
        builder.build("v-lora", core="soa")


def test_engine_cls_core_conflict():
    builder = SystemBuilder(num_adapters=2)
    with pytest.raises(ValueError, match="engine_cls"):
        builder.build("v-lora", engine_cls=ServingEngine, core="soa")


def test_unknown_core_rejected():
    builder = SystemBuilder(num_adapters=2)
    with pytest.raises(ValueError, match="unknown core"):
        builder.build("v-lora", core="simd")


def test_placement_unsupported():
    from repro.runtime.placement import PlacementConfig

    builder = SystemBuilder(num_adapters=2, placement=PlacementConfig())
    with pytest.raises(ValueError, match="placement"):
        builder.build("v-lora", core="soa")
    # The object core accepts the same builder unchanged.
    builder.build("v-lora", core="object")


def test_submit_after_run_rejected():
    builder = SystemBuilder(num_adapters=2)
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=4.0, duration_s=2.0,
        seed=0).generate()
    engine = builder.build("v-lora", core="soa")
    engine.submit(requests)
    engine.run()
    with pytest.raises(RuntimeError, match="before run"):
        engine.submit(requests)
