"""The engine's fused hot path is the old monolithic loop, bit for bit.

The engine's iteration loop was once one monolithic body; it now reads
each batch once (:class:`BatchScan`) and prices it through the
memoized cost table (:class:`IterationCostCache`).
:class:`PrefillExecutor` / :class:`DecodeExecutor` keep the per-phase
reference hooks.  The contract is *bit-identity*: every float evaluated
in the same order, every rng draw at the same point, so the engine
reproduces the pre-refactor engine exactly.

``MonolithicEngine`` below carries the pre-refactor ``_execute_cached``
/ ``_execute_uncached`` / ``_finalize`` bodies **verbatim** (recovered
from git history); a hypothesis property drives the engine and the
monolithic reference over arbitrary bounded workloads — systems x
seeds x fault menus x the reference's cached or uncached cost body —
and compares full digests.  ``_execute_uncached`` is also the uncached
reference of ``test_costcache.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SystemBuilder
from repro.models.config import QWEN_VL_7B
from repro.models.lora import LoRAAdapterSpec
from repro.runtime import FaultInjector, reset_request_ids
from repro.runtime.costcache import BatchSignature
from repro.runtime.engine import ServingEngine
from repro.runtime.failure_detection import Completion
from repro.runtime.metrics import RequestRecord
from repro.runtime.modes import InferenceMode
from repro.runtime.request import Request, RequestStatus
from repro.workloads import RetrievalWorkload

from typing import Dict, List, Optional, Sequence


class MonolithicEngine(ServingEngine):
    """The pre-refactor engine: one body per concern, no executors.

    The three method bodies below ``_execute`` are copied verbatim from
    the last monolithic revision of ``repro/runtime/engine.py``; do not
    "clean them up" — their value is being the historical reference.
    """

    def _execute(self, batch, mode, merged):
        return self._execute_cached(batch, mode, merged)

    def _execute_cached(self, batch: Sequence[Request],
                        mode: InferenceMode,
                        merged: Optional[str]) -> float:
        prefills = [r for r in batch if not r.prefilled]
        decodes = [r for r in batch if r.prefilled]
        adapter_tokens: Dict[str, int] = {}

        launches: tuple = ()
        if prefills:
            effective = [
                max(r.context_len - self._reused_tokens.get(r.request_id, 0), 1)
                for r in prefills
            ]
            if self.config.batch_prefills:
                num_images = sum(r.num_images for r in prefills)
                launches = ((tuple(effective), num_images),)
            else:
                launches = tuple(
                    ((tok,), r.num_images)
                    for r, tok in zip(prefills, effective)
                )
            for r, tok in zip(prefills, effective):
                adapter_tokens[r.adapter_id] = (
                    adapter_tokens.get(r.adapter_id, 0) + tok
                )

        num_decodes = 0
        total_context = 0
        lm = False
        head_classes = 0
        if decodes:
            num_decodes = len(decodes)
            for r in decodes:
                total_context += r.context_len
                if r.use_task_head:
                    classes = self._task_classes_of(r.adapter_id)
                    if classes > head_classes:
                        head_classes = classes
                else:
                    lm = True
                adapter_tokens[r.adapter_id] = (
                    adapter_tokens.get(r.adapter_id, 0) + 1
                )

        groups = tuple(adapter_tokens.items())
        ranks = tuple(
            (a, self._rank_of(a)) for a in adapter_tokens
        )
        if merged is not None and merged not in adapter_tokens:
            ranks += ((merged, self._rank_of(merged)),)

        sig = BatchSignature(
            mode=mode,
            merged_adapter=merged,
            prefill_launches=launches,
            num_decodes=num_decodes,
            decode_context_total=total_context,
            lm_head=lm,
            task_head_classes=head_classes,
            adapter_groups=groups,
            adapter_ranks=ranks,
        )
        base, extra_mean = self.cost_cache.lookup(sig)
        if not adapter_tokens:
            return base
        extra = self.mode_exec.extra_seconds_from_mean(extra_mean, self._rng)
        self.metrics.lora_extra_time_total += extra
        return base + extra

    def _execute_uncached(self, batch: Sequence[Request],
                          mode: InferenceMode,
                          merged: Optional[str]) -> float:
        prefills = [r for r in batch if not r.prefilled]
        decodes = [r for r in batch if r.prefilled]
        t = 0.0
        adapter_tokens: Dict[str, int] = {}

        if prefills:
            effective = [
                max(r.context_len - self._reused_tokens.get(r.request_id, 0), 1)
                for r in prefills
            ]
            num_images = sum(r.num_images for r in prefills)
            if self.config.batch_prefills:
                t += self.iter_costs.prefill_seconds(effective, num_images)
            else:
                # Per-request prefill: each pays its own iteration.
                for r, tok in zip(prefills, effective):
                    t += self.iter_costs.prefill_seconds([tok], r.num_images)
            for r, tok in zip(prefills, effective):
                adapter_tokens[r.adapter_id] = (
                    adapter_tokens.get(r.adapter_id, 0) + tok
                )

        if decodes:
            contexts = [r.context_len for r in decodes]
            lm = any(not r.use_task_head for r in decodes)
            head_classes = max(
                (self.adapters.spec(r.adapter_id).task_head_classes or 101
                 for r in decodes if r.use_task_head),
                default=0,
            )
            t += self.iter_costs.decode_seconds(
                contexts, lm_head=lm, task_head_classes=head_classes
            )
            for r in decodes:
                adapter_tokens[r.adapter_id] = (
                    adapter_tokens.get(r.adapter_id, 0) + 1
                )

        if adapter_tokens:
            ranks = {
                a: self.adapters.spec(a).rank for a in adapter_tokens
            }
            if merged is not None:
                ranks.setdefault(merged, self.adapters.spec(merged).rank)
            extra = self.mode_exec.extra_seconds(
                mode, adapter_tokens, ranks,
                merged_adapter=merged,
                rng=self._rng,
            )
            t += extra
            self.metrics.lora_extra_time_total += extra
        return t

    def _finalize(self, batch: Sequence[Request]) -> None:
        now = self.clock.now
        cap = self._brownout.decode_cap if self._brownout is not None else None
        finished: List[Request] = []
        for r in batch:
            if not r.prefilled:
                r.prefilled = True
                r.status = RequestStatus.RUNNING
            self.kv.append_token(r.request_id)
            r.generated += 1
            if r.first_token_time is None:
                r.first_token_time = now
            if r.is_finished or (cap is not None and r.generated >= cap):
                if not r.is_finished:
                    self.metrics.brownout_truncations += 1
                r.finish_time = now
                r.status = RequestStatus.FINISHED
                finished.append(r)
        for r in finished:
            self.kv.free(r.request_id)
            self._reused_tokens.pop(r.request_id, None)
            self._drop_active(r)
            if self._fencing:
                self.completion_outbox.append(Completion(
                    request=r, token=r.lease, kind="finish",
                    record=RequestRecord.from_request(r), time=now,
                ))
            else:
                self.metrics.complete(r)


class UncachedMonolithicEngine(MonolithicEngine):
    """The monolithic engine on its uncached cost body."""

    def _execute(self, batch, mode, merged):
        return self._execute_uncached(batch, mode, merged)


FAULT_MENUS = (
    None,
    dict(swap_fail_rate=0.6, swap_slow_rate=0.4),
    dict(kv_pressure_rate=0.5, engine_slow_rate=0.4),
    dict(swap_fail_rate=0.5, swap_slow_rate=0.4,
         kv_pressure_rate=0.4, engine_slow_rate=0.3),
)


def _digest(metrics, counters: bool):
    """Fully comparable form of a run.

    Unlike the SoA equivalence digest, the cached monolithic body
    memoizes through the exact same signature table, so even the
    hit/miss counters must agree (``counters``); the uncached body never
    probes the table, so its digest leaves them out.
    """
    summary = dict(metrics.summary())
    if not counters:
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


def _run(system, engine_cls, *, seed, rate, task_heads, cache, fault_menu):
    injector = None
    if fault_menu is not None:
        injector = FaultInjector.random(
            horizon_s=30.0,
            seed=seed,
            adapter_ids=[f"lora-{i}" for i in range(4)],
            engine_ids=("engine-0",),
            **fault_menu,
        )
    builder = SystemBuilder(
        num_adapters=4, gpu_adapter_slots=2, max_batch_size=8,
        fault_injector=injector, deadline_slo_factor=4.0,
    )
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=rate, duration_s=10.0, seed=seed,
        use_task_heads=task_heads, slo_s=2.0,
    ).generate()
    engine = builder.build(system, engine_cls=engine_cls)
    engine.submit(requests)
    return _digest(engine.run(), counters=cache)


@pytest.mark.property
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    system=st.sampled_from(["v-lora", "s-lora", "punica", "dlora",
                            "merge-only", "unmerge-only"]),
    rate=st.sampled_from([4.0, 10.0, 16.0]),
    task_heads=st.booleans(),
    cache=st.booleans(),
    fault_menu=st.sampled_from(FAULT_MENUS),
)
def test_composed_equals_monolithic(seed, system, rate, task_heads,
                                    cache, fault_menu):
    kw = dict(seed=seed, rate=rate, task_heads=task_heads, cache=cache,
              fault_menu=fault_menu)
    reference = MonolithicEngine if cache else UncachedMonolithicEngine
    assert _run(system, None, **kw) == _run(system, reference, **kw)


def test_executors_compose_the_engine():
    """The engine carries one reference executor per phase, in order."""
    engine = SystemBuilder(num_adapters=2).build("v-lora")
    prefill, decode = engine.phase_executors
    assert prefill.phase == "prefill"
    assert decode.phase == "decode"
    assert prefill is engine.prefill_exec
    assert decode is engine.decode_exec


class ScanCheckedEngine(ServingEngine):
    """Checks every iteration's fused :class:`BatchScan` against the
    phase executors' per-request hooks it replaces, and the cost
    table's answer against the cost tower it memoizes.  A steady decode
    step has no scan: its carried context total, boundary members and
    cost cell are checked against the same hooks instead, on members
    whose deferred progress is written out first."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scans_checked = 0
        lookup = self.cost_cache.lookup

        def recorded(sig):
            self.looked_up = lookup(sig)
            return self.looked_up

        self.cost_cache.lookup = recorded

    def _tower(self, batch, mode, merged):
        """The executors' signature fields, token groups, and
        ``(base, extra mean)`` of ``batch``."""
        fields: Dict[str, object] = {}
        tokens: Dict[str, int] = {}
        base = 0.0
        for executor in self.phase_executors:
            requests = executor.select(batch)
            plan = executor.plan(requests)
            fields.update(executor.signature_fields(requests, plan))
            base += executor.cost_seconds(requests, plan)
            executor.accumulate_tokens(requests, plan, tokens)
        extra_mean = 0.0
        if tokens:
            ranks = {a: self.adapters.spec(a).rank for a in tokens}
            if merged is not None:
                ranks.setdefault(merged, self.adapters.spec(merged).rank)
            extra_mean = self.mode_exec.mean_extra_seconds(
                mode, tokens, ranks, merged_adapter=merged)
        return fields, tokens, (base, extra_mean)

    def _execute(self, batch, mode, merged):
        fields, tokens, cost = self._tower(batch, mode, merged)
        scan = self._scan_batch(batch)
        assert fields == {
            "prefill_launches": scan.prefill_launches,
            "num_decodes": scan.num_decodes,
            "decode_context_total": scan.decode_context_total,
            "lm_head": scan.lm_head,
            "task_head_classes": scan.task_head_classes,
        }
        assert list(tokens.items()) == list(scan.adapter_tokens.items())
        block = self.kv.block_size
        assert scan.new_blocks == sum(
            1 for r in batch if r.context_len % block == 0)
        assert scan.seq_ids == [r.request_id for r in batch]

        self.looked_up = None
        latency = super()._execute(batch, mode, merged)
        # Bit-equal, whether the table hit or fell through to its
        # component memos.
        assert self.looked_up == cost
        self.scans_checked += 1
        return latency

    def _steady_cost(self, carry, context_total):
        self._write_out()
        batch = carry.batch
        fields, _, cost = self._tower(batch, carry.mode, carry.merged)
        assert fields["prefill_launches"] == ()
        assert fields["num_decodes"] == len(batch)
        assert fields["decode_context_total"] == context_total
        block = self.kv.block_size
        assert carry.crossings.get(-carry.steps % block, []) == [
            r.request_id for r in batch if r.context_len % block == 0]
        for r in batch:
            assert self.kv.sequence_tokens(r.request_id) == r.context_len
        pair = super()._steady_cost(carry, context_total)
        assert pair == cost
        self.scans_checked += 1
        return pair


@pytest.mark.parametrize("system", ["v-lora", "punica", "dlora"])
@pytest.mark.parametrize("task_heads", [False, True])
def test_batch_scan_equals_executor_hooks(system, task_heads):
    # Distinct ranks and head sizes per adapter, and task-head requests
    # that also decode, so a cost-table key missing a field collides on
    # batches the tower prices differently.
    specs = tuple(
        LoRAAdapterSpec(f"lora-{i}", QWEN_VL_7B, rank=rank,
                        task_head_classes=classes)
        for i, (rank, classes) in enumerate(
            ((16, 0), (32, 10), (64, 101), (128, 365)))
    )
    builder = SystemBuilder(adapter_specs=specs, gpu_adapter_slots=2,
                            max_batch_size=8)
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=10.0, duration_s=10.0, seed=3,
        use_task_heads=task_heads, adapter_burst=4,
    ).generate()
    for r in requests:
        if r.use_task_head:
            r.output_tokens = 3
    engine = builder.build(system, engine_cls=ScanCheckedEngine)
    engine.submit(requests)
    engine.run()
    assert engine.scans_checked == engine.metrics.iterations > 0


def test_executor_advance_is_the_per_request_transition():
    """``advance`` (the reference form of ``_finalize``'s fused step)
    appends one KV token and moves the request on by one token."""
    engine = SystemBuilder(num_adapters=2).build("v-lora")
    reset_request_ids()
    r = Request(adapter_id=engine.adapters.adapter_ids[0],
                input_tokens=16, output_tokens=3, arrival_time=0.0)
    engine.kv.allocate(r.request_id, r.context_len)
    engine.prefill_exec.advance(r)
    assert r.prefilled and r.status is RequestStatus.RUNNING
    assert r.generated == 1 and r.first_token_time == engine.clock.now
    engine.decode_exec.advance(r)
    assert r.generated == 2
    assert engine.kv.sequence_tokens(r.request_id) == r.context_len == 18
