"""Cost-memoization layer: unit behavior + bit-identical end-to-end runs.

The cache's contract (see ``repro/runtime/costcache.py``) is that it may
only change wall-clock time, never simulated results.  The property
tests here run the same workload through the engine and through an
engine whose cost step is the uncached reference body
(``MonolithicEngine._execute_uncached``, which re-derives every
iteration through the full cost-model tower), and require the final
clock, every per-request timestamp, and the whole metrics summary to
match to full float precision — across systems, seeds, and fault
schedules.
"""

from __future__ import annotations

import pytest

from repro.core.builder import SystemBuilder
from repro.models.config import QWEN_VL_7B
from repro.models.costs import IterationCostModel
from repro.hardware.gpu import A100_80GB
from repro.runtime.costcache import (
    BatchSignature,
    IterationCostCache,
    row_key,
)
from repro.runtime.engine import ServingEngine
from repro.runtime.faults import FaultInjector
from repro.runtime.modes import InferenceMode
from repro.runtime.request import reset_request_ids
from repro.workloads.retrieval import RetrievalWorkload
from tests.runtime.test_phase_executors import MonolithicEngine


def _signature(**overrides) -> BatchSignature:
    base = dict(
        mode=InferenceMode.UNMERGED,
        merged_adapter=None,
        prefill_launches=(((64, 32), 1),),
        num_decodes=3,
        decode_context_total=300,
        lm_head=True,
        task_head_classes=0,
        adapter_groups=(("lora-0", 5),),
        adapter_ranks=(("lora-0", 64),),
    )
    base.update(overrides)
    return BatchSignature(**base)


class TestIterationCostCache:
    def _cache(self, **kwargs) -> IterationCostCache:
        engine = SystemBuilder(num_adapters=2).build("v-lora")
        return IterationCostCache(engine.iter_costs, engine.mode_exec,
                                  **kwargs)

    def test_hit_and_miss_counters(self):
        cache = self._cache()
        sig = _signature()
        first = cache.lookup(sig)
        second = cache.lookup(sig)
        assert first == second
        assert cache.metrics.cost_cache_hits == 1
        assert cache.metrics.cost_cache_misses == 1

    def test_distinct_signatures_miss(self):
        cache = self._cache()
        cache.lookup(_signature())
        cache.lookup(_signature(decode_context_total=301))
        assert cache.metrics.cost_cache_hits == 0
        assert cache.metrics.cost_cache_misses == 2

    def test_base_matches_direct_cost_model(self):
        cache = self._cache()
        sig = _signature()
        base, extra_mean = cache.lookup(sig)
        expected = 0.0
        for tokens, images in sig.prefill_launches:
            expected += cache.iter_costs.prefill_seconds(tokens, images)
        expected += cache.iter_costs.decode_seconds_stats(
            sig.num_decodes, sig.decode_context_total
        )
        assert base == expected
        assert extra_mean == cache.mode_exec.mean_extra_seconds(
            sig.mode, dict(sig.adapter_groups), dict(sig.adapter_ranks),
            merged_adapter=sig.merged_adapter,
        )

    def test_eviction_clears_but_stays_correct(self):
        cache = self._cache(max_entries=2)
        sigs = [_signature(decode_context_total=300 + i) for i in range(4)]
        values = [cache.lookup(s) for s in sigs]
        assert [cache.lookup(s) for s in sigs] == values

    def test_rows_and_cells_count_like_one_flat_table(self):
        """Cells of one row count as distinct signatures, a clear comes
        when the cell count reaches ``max_entries``, and a row held
        across the clear is served from the live table."""
        cache = self._cache(max_entries=2)
        row = cache.row(row_key(_signature()))
        first = cache.cell(row, 300)
        assert cache.lookup(_signature(decode_context_total=300)) == first
        cache.lookup(_signature(decode_context_total=301))
        cache.lookup(_signature(decode_context_total=302))  # clears
        assert cache.generation == 1
        assert cache.cell(row, 300) == first  # a miss after the clear
        assert cache.cell(row, 302) == cache.lookup(
            _signature(decode_context_total=302))
        assert cache.metrics.cost_cache_hits == 3
        assert cache.metrics.cost_cache_misses == 4

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            self._cache(max_entries=0)


class TestDecodeStats:
    def test_matches_per_request_decode(self):
        costs = IterationCostModel(QWEN_VL_7B, A100_80GB)
        for lens in ((17,), (64, 64, 64), (1, 2, 3, 4, 5),
                     (1000, 13, 512, 2048)):
            for lm_head, classes in ((True, 0), (False, 101), (True, 365)):
                assert costs.decode_seconds_stats(
                    len(lens), sum(lens), lm_head=lm_head,
                    task_head_classes=classes,
                ) == costs.decode_seconds(
                    lens, lm_head=lm_head, task_head_classes=classes,
                )


class UncachedEngine(ServingEngine):
    """The engine with its cost step swapped for the uncached reference.

    It holds no carry: a steady decode step would price its batch from
    a cost-table row, never calling ``_execute``.
    """

    _execute = MonolithicEngine._execute_uncached

    def _build_carry(self, survivors, mode, merged):
        return None


def _run_once(system: str, seed: int, engine_cls, with_faults: bool):
    injector = None
    if with_faults:
        injector = FaultInjector.random(
            horizon_s=120.0, seed=seed,
            adapter_ids=[f"lora-{i}" for i in range(8)],
            swap_fail_rate=0.05, swap_slow_rate=0.05,
            kv_pressure_rate=0.02, engine_slow_rate=0.02,
        )
    builder = SystemBuilder(num_adapters=8, gpu_adapter_slots=4,
                            jitter_seed=seed,
                            fault_injector=injector)
    reset_request_ids()
    requests = RetrievalWorkload(
        builder.adapter_ids, rate_rps=12.0, duration_s=25.0,
        use_task_heads=(system == "v-lora"), seed=seed,
    ).generate()
    engine = builder.build(system, engine_cls=engine_cls)
    engine.submit(requests)
    metrics = engine.run()
    summary = metrics.summary()
    summary.pop("cost_cache_hits", None)
    summary.pop("cost_cache_misses", None)
    records = sorted(
        (r.request_id, r.arrival_time, r.first_token_time, r.finish_time)
        for r in metrics.records
    )
    return engine.clock.now, records, summary


class TestCacheEquivalence:
    """Memoized runs are bit-identical to the uncached reference body."""

    @pytest.mark.parametrize("system", ["v-lora", "s-lora", "punica",
                                        "dlora"])
    def test_systems(self, system):
        assert (_run_once(system, seed=3, engine_cls=None,
                          with_faults=False)
                == _run_once(system, seed=3, engine_cls=UncachedEngine,
                             with_faults=False))

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_seeds(self, seed):
        assert (_run_once("v-lora", seed=seed, engine_cls=None,
                          with_faults=False)
                == _run_once("v-lora", seed=seed, engine_cls=UncachedEngine,
                             with_faults=False))

    @pytest.mark.parametrize("system", ["v-lora", "dlora"])
    def test_fault_schedules(self, system):
        cached = _run_once(system, seed=5, engine_cls=None,
                           with_faults=True)
        assert cached == _run_once(system, seed=5, engine_cls=UncachedEngine,
                                   with_faults=True)

    def test_cache_actually_engages(self):
        builder = SystemBuilder(num_adapters=4)
        reset_request_ids()
        requests = RetrievalWorkload(
            builder.adapter_ids, rate_rps=10.0, duration_s=20.0,
            use_task_heads=True, seed=1,
        ).generate()
        engine = builder.build("v-lora")
        engine.submit(requests)
        metrics = engine.run()
        assert metrics.cost_cache_misses > 0
        assert (metrics.cost_cache_hits + metrics.cost_cache_misses
                == metrics.iterations)
