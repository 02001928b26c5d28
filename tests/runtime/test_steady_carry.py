"""Steady decode steps are the full iteration, bit for bit.

While the policy keeps choosing the batch the previous iteration left
running, the engine runs a *steady step* from its carry
(:class:`~repro.runtime.engine.DecodeCarry`) and defers each member's
progress.  The property here: any run equals the same run with the carry
disabled (``_build_carry`` overridden to build none), in its full digest
— records, aborts and summary, cost-cache hit/miss counters included —
and in every engine's state after every step: each live request's
``generated``, each KV sequence's token count and block list, and the
free list, with the carry's deferred progress counted in.  Runs draw
systems, fault menus (KV pressure, swap failures, stragglers, engine
death), deadlines, breakers, brownout, disaggregated pools, fencing and
a tracer.  Half the examples write deferred progress out after every
step; the other half leave it deferred, so the write-out points and the
lagging growth rule are both exercised.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SystemBuilder
from repro.hardware.gpu import A100_80GB
from repro.runtime import (
    BreakerConfig,
    BrownoutConfig,
    DisaggConfig,
    FailureDetector,
    FailureDetectorConfig,
    FaultInjector,
    MultiGPUServer,
    reset_request_ids,
)
from repro.runtime.engine import ServingEngine
from repro.workloads import RetrievalWorkload

pytestmark = pytest.mark.property

#: Small HBM, so that KV pressure preempts and boundary blocks run out
#: (163 blocks of 16 tokens), and a roomier one (987 blocks).
SMALL_GPU = dataclasses.replace(A100_80GB, name="A100-21GB",
                                hbm_capacity_gb=21.0)
ROOMY_GPU = dataclasses.replace(A100_80GB, name="A100-28GB",
                                hbm_capacity_gb=28.0)
FAULT_MENUS = (
    None,
    dict(kv_pressure_rate=0.4, engine_slow_rate=0.3),
    dict(swap_fail_rate=0.5, swap_slow_rate=0.3),
    dict(swap_fail_rate=0.3, kv_pressure_rate=0.3, engine_slow_rate=0.3,
         engine_fail_rate=0.05),
)
SYSTEMS = ("v-lora", "s-lora", "punica", "dlora", "merge-only",
           "unmerge-only")
ENGINE_IDS = tuple(f"gpu-{i}" for i in range(4))


def _state(engine: ServingEngine):
    """The engine's request and KV state, deferred progress counted in."""
    carry = engine._carry
    lag = carry.steps - carry.written if carry is not None else 0
    carried = set(carry.seq_ids) if lag else set()
    kv = engine.kv
    return (
        engine.clock.now,
        tuple((rid, r.generated + (lag if rid in carried else 0))
              for rid, r in engine._active.items()),
        tuple(sorted(
            (sid, seq.num_tokens + (lag if sid in carried else 0),
             tuple(seq.blocks))
            for sid, seq in kv._sequences.items())),
        tuple(kv._free),
    )


def _engine_classes(log, write_out):
    """A carrying engine and its carry-free twin, both logging state."""

    class Logged(ServingEngine):
        def step(self):
            super().step()
            if write_out:
                self._write_out()
            self.kv.check_invariants()
            log.setdefault(self.engine_id, []).append(_state(self))

    class NoCarry(Logged):
        def _build_carry(self, survivors, mode, merged):
            return None

    return Logged, NoCarry


def _digest(metrics, tracers):
    summary = sorted(metrics.summary().items())
    records = sorted(dataclasses.astuple(r) for r in metrics.records)
    aborts = sorted(dataclasses.astuple(a) for a in metrics.aborts)
    events = [[dataclasses.astuple(e) for e in t.events] for t in tracers]
    return summary, records, aborts, events


@st.composite
def runs(draw):
    features = draw(st.sets(st.sampled_from(
        ("deadline", "breaker", "brownout", "small_kv", "tracer",
         "cluster", "disagg", "fencing"))))
    return dict(
        features=features,
        system=("v-lora" if features & {"cluster", "disagg", "fencing"}
                else draw(st.sampled_from(SYSTEMS))),
        faults=draw(st.sampled_from(FAULT_MENUS)),
        seed=draw(st.integers(0, 2**16)),
        rate=draw(st.sampled_from((4.0, 8.0, 16.0))),
        write_out=draw(st.booleans()),
    )


def _run(spec, engine_cls):
    features = spec["features"]
    seed = spec["seed"]
    injector = None
    if spec["faults"] is not None:
        injector = FaultInjector.random(
            horizon_s=20.0, seed=seed,
            adapter_ids=[f"lora-{i}" for i in range(4)],
            engine_ids=ENGINE_IDS, **spec["faults"],
        )
    builder = SystemBuilder(
        num_adapters=4, gpu_adapter_slots=2, max_batch_size=16,
        gpu=SMALL_GPU if "small_kv" in features else ROOMY_GPU,
        jitter_seed=seed, fault_injector=injector,
        deadline_slo_factor=2.0 if "deadline" in features else None,
        breaker=(BreakerConfig(failure_threshold=2, cooldown_s=0.3)
                 if "breaker" in features else None),
        brownout=(BrownoutConfig(queue_high=6)
                  if "brownout" in features else None),
    )
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=spec["rate"], duration_s=4.0,
        seed=seed, slo_s=1.5,
    ).generate()
    tracers = []

    def make():
        engine = builder.build(spec["system"], engine_cls=engine_cls)
        if "tracer" in features:
            tracers.append(engine.attach_tracer())
        return engine

    if features & {"cluster", "disagg", "fencing"}:
        kwargs = {}
        if "disagg" in features:
            kwargs["disagg"] = DisaggConfig(prefill_replicas=1,
                                            decode_replicas=1)
        if "fencing" in features:
            kwargs["detector"] = FailureDetector(FailureDetectorConfig(
                phi_suspect=1.0, phi_confirm=3.0))
        server = MultiGPUServer.replicate(make, 2, max_requeues=4, **kwargs)
        server.submit(requests)
        metrics = server.run()
    else:
        engine = make()
        engine.submit(requests)
        metrics = engine.run()
    return _digest(metrics, tracers)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=runs())
def test_carry_equals_no_carry(spec):
    carry_log, plain_log = {}, {}
    carrying, _ = _engine_classes(carry_log, spec["write_out"])
    _, plain = _engine_classes(plain_log, spec["write_out"])
    assert _run(spec, carrying) == _run(spec, plain)
    assert carry_log == plain_log


def test_steady_steps_engage():
    """The property above is not vacuous: a decode-heavy run takes most
    of its iterations as steady steps, and a steady step takes no
    ``_execute`` call."""
    builder = SystemBuilder(num_adapters=4, max_batch_size=16)
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=12.0, duration_s=6.0, seed=1,
    ).generate()

    class Counted(ServingEngine):
        executed = 0

        def _execute(self, batch, mode, merged):
            self.executed += 1
            return super()._execute(batch, mode, merged)

    engine = builder.build("v-lora", engine_cls=Counted)
    engine.submit(requests)
    metrics = engine.run()
    assert metrics.iterations > 2 * engine.executed > 0
    assert all(r.is_terminal for r in requests)
    assert engine.kv.used_blocks == sum(
        len(e.blocks) for e in engine.kv._prefixes.values())
